//! Span-based tracing over simulated time.
//!
//! A trace is built **per message**: a scan of one message never crosses
//! threads, so its events accumulate in plain thread-local state — the
//! lock-free per-worker buffer — and are pushed to the shared merge buffer
//! only once, when the scan finishes. The merged trace is then sorted by
//! `(message_id, stage)`: a deterministic order no matter which worker ran
//! which message or when it finished. (Determinism requires unique message
//! ids within one recording window; batches that clone a message id still
//! trace correctly but their merge order for the clones is unspecified.)
//!
//! Times are `i64` **sim-seconds** (the unit of `cb_sim::SimDuration`),
//! offsets from the start of each message's scan; instrumentation converts
//! with `SimDuration::as_seconds()` at the call site, which keeps this
//! crate dependency-free.
//!
//! Two field channels keep the determinism contract honest:
//!
//! * **`fields`** — data that is a pure function of `(seed, config)`:
//!   sim-time durations, URLs, outcomes, fault provenance, per-scan cache
//!   hits. These survive into *canonical* exports, which must be
//!   byte-identical across worker counts.
//! * **`advisory`** — data that depends on thread interleaving: the worker
//!   that ran the scan, shared-cache hit/miss, steal provenance. These only
//!   appear in *full* exports and are excluded from golden comparisons.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};

/// Ordered structured fields attached to an event.
pub type FieldList = Vec<(&'static str, String)>;

/// One event in a message trace. Times are sim-second offsets from the
/// start of the message's scan (each scan starts its own cursor at zero,
/// which is what keeps traces independent of batch position and worker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Span open.
    Begin {
        /// Span name (see DESIGN.md §10 for the taxonomy).
        name: &'static str,
        /// Sim-second offset of the open.
        at: i64,
        /// Deterministic fields.
        fields: FieldList,
        /// Interleaving-dependent fields (full exports only).
        advisory: FieldList,
    },
    /// Span close; pairs with the most recent unclosed `Begin`.
    End {
        /// Name of the span being closed.
        name: &'static str,
        /// Sim-second offset of the close.
        at: i64,
    },
    /// Point event inside the current span.
    Instant {
        /// Event name.
        name: &'static str,
        /// Sim-second offset.
        at: i64,
        /// Deterministic fields.
        fields: FieldList,
        /// Interleaving-dependent fields (full exports only).
        advisory: FieldList,
    },
}

impl TraceEvent {
    /// Event name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Begin { name, .. }
            | TraceEvent::End { name, .. }
            | TraceEvent::Instant { name, .. } => name,
        }
    }

    /// Sim-second offset from scan start.
    pub fn at(&self) -> i64 {
        match self {
            TraceEvent::Begin { at, .. }
            | TraceEvent::End { at, .. }
            | TraceEvent::Instant { at, .. } => *at,
        }
    }
}

/// All events recorded for one message during one stage.
///
/// `stage` separates the scan itself (0) from sink delivery (1): delivery
/// happens on the engine's calling thread after the scan trace was already
/// pushed, so it becomes its own buffer entry that the deterministic sort
/// files directly after the scan events of the same message.
#[derive(Debug, Clone)]
pub struct MessageTrace {
    /// The scanned message's id.
    pub message_id: usize,
    /// 0 = scan spans, 1 = sink delivery.
    pub stage: u8,
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
}

/// The in-progress trace of the message currently being scanned on this
/// thread. Instrumentation sites reach it through [`with_active`]; when no
/// trace is active (tracing off, or code running outside a scan) every site
/// is a cheap no-op.
#[derive(Debug)]
pub struct ActiveTrace {
    message_id: usize,
    cursor: i64,
    events: Vec<TraceEvent>,
    stack: Vec<&'static str>,
}

impl ActiveTrace {
    fn new(message_id: usize) -> Self {
        ActiveTrace {
            message_id,
            cursor: 0,
            events: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span with deterministic fields only.
    pub fn begin(&mut self, name: &'static str, fields: FieldList) {
        self.begin_adv(name, fields, Vec::new());
    }

    /// Open a span with deterministic and advisory fields.
    pub fn begin_adv(&mut self, name: &'static str, fields: FieldList, advisory: FieldList) {
        self.stack.push(name);
        self.events.push(TraceEvent::Begin {
            name,
            at: self.cursor,
            fields,
            advisory,
        });
    }

    /// Close the innermost open span. A close without a matching open is a
    /// bug in the instrumentation, not in user input — panic loudly.
    pub fn end(&mut self) {
        let name = self
            .stack
            .pop()
            .expect("telemetry: end() without matching begin()");
        self.events.push(TraceEvent::End {
            name,
            at: self.cursor,
        });
    }

    /// Record a point event with deterministic fields only.
    pub fn instant(&mut self, name: &'static str, fields: FieldList) {
        self.instant_adv(name, fields, Vec::new());
    }

    /// Record a point event with deterministic and advisory fields.
    pub fn instant_adv(&mut self, name: &'static str, fields: FieldList, advisory: FieldList) {
        self.events.push(TraceEvent::Instant {
            name,
            at: self.cursor,
            fields,
            advisory,
        });
    }

    /// Move the scan-local sim-time cursor forward by `seconds`.
    /// Instrumentation calls this wherever the pipeline accounts simulated
    /// time (visit latency, backoff waits); the cursor is what gives spans
    /// their extent. Negative amounts are ignored.
    pub fn advance(&mut self, seconds: i64) {
        if seconds > 0 {
            self.cursor += seconds;
        }
    }

    /// Current sim-second offset from scan start.
    pub fn elapsed(&self) -> i64 {
        self.cursor
    }

    /// Depth of currently open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` against the trace of the message currently being scanned on this
/// thread, if any. No-op (and near-free) when tracing is off.
pub fn with_active<F: FnOnce(&mut ActiveTrace)>(f: F) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            f(t);
        }
    });
}

/// Tag this thread with a scan worker index. The index is attached to
/// each scan's root span as an *advisory* field — which worker ran a message
/// is exactly the kind of fact the determinism contract does not cover.
pub fn set_worker(w: Option<usize>) {
    WORKER.with(|c| c.set(w));
}

/// The worker index previously set via [`set_worker`], if any.
pub fn worker() -> Option<usize> {
    WORKER.with(|c| c.get())
}

/// Entry point for recording: hands out per-message guards and merges the
/// finished per-worker buffers into one deterministic trace.
///
/// Cloning is cheap and shares the underlying merge buffer, so a pipeline
/// can keep one `Tracer` and lend clones to worker threads. The merge
/// buffer is locked once per finished scan (never per event — events go to
/// the thread-local buffer), so contention is negligible.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    merged: Arc<Mutex<Vec<MessageTrace>>>,
}

impl Tracer {
    /// A tracer, recording iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            merged: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Turn recording on or off (affects scans started afterwards).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start recording a message scan on the current thread. The returned
    /// guard must live for the duration of the scan; dropping it closes any
    /// spans left open (e.g. by a panic that was caught upstream) and
    /// pushes the finished trace to the merge buffer. Returns `None` when
    /// tracing is off.
    pub fn message(&self, message_id: usize) -> Option<ScanTraceGuard> {
        if !self.enabled {
            return None;
        }
        let mut trace = ActiveTrace::new(message_id);
        trace.begin_adv(
            "scan",
            Vec::new(),
            worker()
                .map(|w| ("worker", w.to_string()))
                .into_iter()
                .collect(),
        );
        let prev = ACTIVE.with(|a| a.borrow_mut().replace(trace));
        Some(ScanTraceGuard {
            merged: Arc::clone(&self.merged),
            prev: Some(prev),
        })
    }

    /// Record a sink-delivery event for `message_id`. Delivery happens
    /// outside the scan (on the engine's calling thread, after the scan trace
    /// was pushed), so it gets its own stage-1 entry.
    pub fn delivery(&self, message_id: usize, fields: FieldList) {
        if !self.enabled {
            return;
        }
        self.push(MessageTrace {
            message_id,
            stage: 1,
            events: vec![TraceEvent::Instant {
                name: "sink.deliver",
                at: 0,
                fields,
                advisory: Vec::new(),
            }],
        });
    }

    fn push(&self, trace: MessageTrace) {
        self.merged
            .lock()
            .expect("telemetry merge buffer poisoned")
            .push(trace);
    }

    /// Drain everything recorded so far into a message-ordered [`Trace`].
    pub fn take(&self) -> Trace {
        let mut messages =
            std::mem::take(&mut *self.merged.lock().expect("telemetry merge buffer poisoned"));
        messages.sort_by_key(|t| (t.message_id, t.stage));
        Trace { messages }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

/// Guard installed for the duration of one message scan; see
/// [`Tracer::message`].
pub struct ScanTraceGuard {
    merged: Arc<Mutex<Vec<MessageTrace>>>,
    /// The thread's previous active trace (almost always `None`), restored
    /// on drop so nested recordings compose.
    prev: Option<Option<ActiveTrace>>,
}

impl Drop for ScanTraceGuard {
    fn drop(&mut self) {
        let taken = ACTIVE.with(|a| a.borrow_mut().take());
        if let Some(mut t) = taken {
            while t.depth() > 0 {
                t.end();
            }
            if let Ok(mut merged) = self.merged.lock() {
                merged.push(MessageTrace {
                    message_id: t.message_id,
                    stage: 0,
                    events: t.events,
                });
            }
        }
        if let Some(prev) = self.prev.take() {
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }
}

/// A merged, message-ordered trace ready for export.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-message event groups, sorted by `(message_id, stage)`.
    pub messages: Vec<MessageTrace>,
}

impl Trace {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Total number of events across all messages.
    pub fn event_count(&self) -> usize {
        self.messages.iter().map(|m| m.events.len()).sum()
    }

    /// Merge several traces (e.g. one per adaptive experiment cell, each
    /// drained from its own tracer) into one message-ordered trace. The
    /// result is re-sorted by `(message_id, stage)`, so the merge is
    /// independent of the order the parts were produced in — what keeps a
    /// fanned-out experiment's export byte-identical across worker counts.
    pub fn merge(parts: impl IntoIterator<Item = Trace>) -> Trace {
        let mut messages: Vec<MessageTrace> = parts.into_iter().flat_map(|t| t.messages).collect();
        messages.sort_by_key(|m| (m.message_id, m.stage));
        Trace { messages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert!(tracer.message(7).is_none());
        with_active(|t| t.instant("x", Vec::new()));
        tracer.delivery(7, Vec::new());
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn guard_scopes_events_to_one_message_and_autocloses_spans() {
        let tracer = Tracer::new(true);
        {
            let _g = tracer.message(3).expect("enabled");
            with_active(|t| {
                t.begin("visit", vec![("url", "http://x/".into())]);
                t.advance(5);
                t.instant("net.fault", vec![("kind", "dns-timeout".into())]);
                // `visit` left open: the guard must close it (and the root).
            });
        }
        with_active(|t| t.instant("stray", Vec::new())); // no active trace: no-op
        let trace = tracer.take();
        assert_eq!(trace.messages.len(), 1);
        assert_eq!(trace.messages[0].message_id, 3);
        let events = &trace.messages[0].events;
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["scan", "visit", "net.fault", "visit", "scan"]);
        assert_eq!(events.last().unwrap().at(), 5);
    }

    #[test]
    fn take_orders_by_message_id_then_stage_regardless_of_push_order() {
        let tracer = Tracer::new(true);
        tracer.delivery(2, Vec::new());
        tracer.delivery(1, Vec::new());
        drop(tracer.message(2).unwrap());
        drop(tracer.message(1).unwrap());
        let order: Vec<(usize, u8)> = tracer
            .take()
            .messages
            .iter()
            .map(|m| (m.message_id, m.stage))
            .collect();
        assert_eq!(order, [(1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn worker_tag_lands_on_root_span_as_advisory() {
        let tracer = Tracer::new(true);
        set_worker(Some(4));
        drop(tracer.message(0).unwrap());
        set_worker(None);
        let trace = tracer.take();
        match &trace.messages[0].events[0] {
            TraceEvent::Begin { name, advisory, .. } => {
                assert_eq!(*name, "scan");
                assert_eq!(advisory, &vec![("worker", "4".to_string())]);
            }
            other => panic!("expected root Begin, got {other:?}"),
        }
    }

    #[test]
    fn nested_guard_restores_outer_trace() {
        let tracer = Tracer::new(true);
        let outer = tracer.message(10).unwrap();
        with_active(|t| t.instant("outer.a", Vec::new()));
        {
            let _inner = tracer.message(11).unwrap();
            with_active(|t| t.instant("inner", Vec::new()));
        }
        with_active(|t| t.instant("outer.b", Vec::new()));
        drop(outer);
        let trace = tracer.take();
        let ids: Vec<usize> = trace.messages.iter().map(|m| m.message_id).collect();
        assert_eq!(ids, [10, 11]);
        let outer_names: Vec<&str> = trace.messages[0].events.iter().map(|e| e.name()).collect();
        assert_eq!(outer_names, ["scan", "outer.a", "outer.b", "scan"]);
    }

    #[test]
    fn traces_pushed_from_worker_threads_merge_deterministically() {
        let tracer = Tracer::new(true);
        std::thread::scope(|s| {
            for w in 0..4usize {
                let tracer = tracer.clone();
                s.spawn(move || {
                    set_worker(Some(w));
                    for id in (w..16).step_by(4) {
                        let _g = tracer.message(id).unwrap();
                        with_active(|t| {
                            t.advance(id as i64);
                            t.instant("tick", vec![("id", id.to_string())]);
                        });
                    }
                });
            }
        });
        let ids: Vec<usize> = tracer
            .take()
            .messages
            .iter()
            .map(|m| m.message_id)
            .collect();
        assert_eq!(ids, (0..16).collect::<Vec<_>>());
    }
}
