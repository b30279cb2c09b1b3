//! The shared fan-out primitive: scoped threads pulling task indices from
//! an atomic counter into a pre-sized slot vector.
//!
//! This is the pool for fixed-size jobs whose results are wanted all at
//! once: cb-store's parallel shard recovery, compaction, repair and batch
//! appends, and cb-adaptive's experiment cells. Results come back in task
//! order regardless of which worker ran what; a task whose worker died
//! (panic) leaves `None` in its slot for the caller to turn into a degraded
//! result or an error.
//!
//! Scans go through the bounded streaming engine in `pipeline` instead,
//! which also caps how many messages are resident and delivers in message
//! order as records finish. Both spawn nothing for a single task: here
//! one task, or `workers <= 1`, runs inline on the caller; the engine goes
//! further and always makes the calling thread its worker 0, scanning
//! beside at most `parallelism − 1` helpers, so a one-message burst runs
//! on the caller alone. Neither keeps threads between calls.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Run `tasks` closures over `workers` threads with work stealing.
///
/// `f(worker, task)` is called exactly once per task index in `0..tasks`
/// (unless a worker panics mid-task); results land at their task index.
/// With `workers <= 1` or a single task everything runs on the calling
/// thread as worker 0 — no threads spawned.
///
/// Each worker thread runs with its `cb_telemetry` worker id set, so
/// per-worker trace attribution works for any caller.
pub fn run_stealing<T, F>(workers: usize, tasks: usize, f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    if workers <= 1 || tasks <= 1 {
        cb_telemetry::set_worker(Some(0));
        let out = (0..tasks).map(|i| Some(f(0, i))).collect();
        cb_telemetry::set_worker(None);
        return out;
    }
    let workers = workers.min(tasks);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<T>>> = Vec::new();
    slots.resize_with(tasks, || Mutex::new(None));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, slots, f) = (&next, &slots, &f);
                scope.spawn(move || {
                    cb_telemetry::set_worker(Some(w));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        let out = f(w, i);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                    }
                    cb_telemetry::set_worker(None);
                })
            })
            .collect();
        // Joined here rather than by the scope, which would re-raise a
        // worker's panic: a dead worker only costs the task it held, whose
        // slot stays `None`.
        for handle in handles {
            let _ = handle.join();
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_land_in_task_order() {
        let out = run_stealing(4, 32, |_, i| i * 10);
        assert_eq!(out.len(), 32);
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(*slot, Some(i * 10));
        }
    }

    #[test]
    fn single_worker_runs_inline() {
        let out = run_stealing(1, 3, |w, i| (w, i));
        assert_eq!(out, vec![Some((0, 0)), Some((0, 1)), Some((0, 2))]);
    }

    #[test]
    fn zero_tasks_is_empty() {
        let out: Vec<Option<usize>> = run_stealing(4, 0, |_, i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_stealing(8, 100, |_, i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        let seen: HashSet<usize> = out.into_iter().flatten().collect();
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn panicking_task_leaves_none_others_complete() {
        let out = run_stealing(2, 8, |_, i| {
            if i == 3 {
                panic!("task 3 dies");
            }
            i
        });
        assert_eq!(out[3], None);
        // Only the claiming worker dies; the surviving worker drains the
        // counter, so every other task completes.
        assert_eq!(out.iter().filter(|s| s.is_some()).count(), 7);
    }
}
