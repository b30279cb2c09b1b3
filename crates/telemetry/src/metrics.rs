//! Named counters, gauges and fixed-bucket sim-time histograms.
//!
//! The registry is the successor to the ad-hoc `ScanStats` atomics: every
//! instrument is registered under a stable name with a [`Determinism`]
//! class, hot paths update pre-fetched cloneable handles (an atomic add, no
//! map lookup), and the whole registry exports to JSON with
//! deterministically ordered keys.
//!
//! Like trace fields, metrics split along the determinism contract:
//! `Deterministic` instruments are pure functions of `(seed, config)` and
//! appear in canonical exports; `Advisory` instruments (steal counts,
//! shared-cache traffic, residency peaks) depend on thread interleaving and
//! only appear in full exports.

use crate::json::{push_int_array, push_str_literal};
use crate::ExportMode;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Whether an instrument's value is covered by the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// Pure function of `(seed, config)`; included in canonical exports.
    Deterministic,
    /// Depends on thread interleaving; full exports only.
    Advisory,
}

/// Monotonic counter handle. Clones share the same underlying value.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// A counter not (yet) attached to a registry.
    pub fn standalone() -> Self {
        Self::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    level: AtomicU64,
    peak: AtomicU64,
}

/// Level + high-watermark gauge handle. Clones share the same value.
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Arc<GaugeInner>);

impl GaugeHandle {
    /// A gauge not (yet) attached to a registry.
    pub fn standalone() -> Self {
        Self::default()
    }

    /// Raise the level by `n`, updating the peak; returns the new level.
    pub fn add(&self, n: u64) -> u64 {
        let now = self.0.level.fetch_add(n, Ordering::Relaxed) + n;
        self.0.peak.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Lower the level by `n` (saturating).
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .level
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Fold a sampled value into the peak without touching the level (for
    /// gauges whose level is tracked elsewhere).
    pub fn note(&self, value: u64) {
        self.0.peak.fetch_max(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn level(&self) -> u64 {
        self.0.level.load(Ordering::Relaxed)
    }

    /// Highest level (or noted value) seen.
    pub fn peak(&self) -> u64 {
        self.0.peak.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    /// Inclusive upper bounds of all but the overflow bucket.
    bounds: Vec<i64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicI64,
}

/// Fixed-bucket histogram handle for sim-time quantities (seconds, depths,
/// byte counts). Clones share the same value.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<HistInner>);

impl HistogramHandle {
    /// A histogram with the given inclusive bucket upper bounds (an
    /// overflow bucket is added automatically). Bounds must ascend.
    pub fn with_bounds(bounds: &[i64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramHandle(Arc::new(HistInner {
            bounds: bounds.to_vec(),
            counts,
            total: AtomicU64::new(0),
            sum: AtomicI64::new(0),
        }))
    }

    /// Record one observation.
    pub fn observe(&self, value: i64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.total.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> i64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Bucket upper bounds (without the overflow bucket).
    pub fn bounds(&self) -> Vec<i64> {
        self.0.bounds.clone()
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(CounterHandle),
    Gauge(GaugeHandle),
    Histogram(HistogramHandle),
}

/// Selects the instruments of one export section.
type InstrumentFilter = fn(&Instrument) -> bool;

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// The registry: name → (determinism class, instrument). Registration is
/// get-or-create, so independent components can share an instrument by
/// agreeing on its name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: RwLock<BTreeMap<String, (Determinism, Instrument)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        det: Determinism,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut entries = self.entries.write().expect("metrics registry poisoned");
        let (_, instrument) = entries
            .entry(name.to_string())
            .or_insert_with(|| (det, make()));
        instrument.clone()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str, det: Determinism) -> CounterHandle {
        match self.register(name, det, || {
            Instrument::Counter(CounterHandle::standalone())
        }) {
            Instrument::Counter(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str, det: Determinism) -> GaugeHandle {
        match self.register(name, det, || Instrument::Gauge(GaugeHandle::standalone())) {
            Instrument::Gauge(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or create the histogram `name` with the given bucket bounds.
    pub fn histogram(&self, name: &str, det: Determinism, bounds: &[i64]) -> HistogramHandle {
        match self.register(name, det, || {
            Instrument::Histogram(HistogramHandle::with_bounds(bounds))
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Capture every instrument's current value, in sorted name order.
    /// `Canonical` mode drops advisory instruments, exactly like
    /// [`export_json`](Self::export_json) — the snapshot is the input to
    /// the Prometheus renderer and can outlive any lock the registry's
    /// owner holds.
    pub fn snapshot(&self, mode: ExportMode) -> crate::prometheus::MetricsSnapshot {
        use crate::prometheus::{MetricValue, MetricsSnapshot};
        let entries = self.entries.read().expect("metrics registry poisoned");
        let keep =
            |det: &Determinism| mode == ExportMode::Full || *det == Determinism::Deterministic;
        MetricsSnapshot {
            entries: entries
                .iter()
                .filter(|(_, (det, _))| keep(det))
                .map(|(name, (_, instrument))| {
                    let value = match instrument {
                        Instrument::Counter(h) => MetricValue::Counter(h.get()),
                        Instrument::Gauge(h) => MetricValue::Gauge {
                            level: h.level(),
                            peak: h.peak(),
                        },
                        Instrument::Histogram(h) => MetricValue::Histogram {
                            bounds: h.bounds(),
                            buckets: h.bucket_counts(),
                            count: h.count(),
                            sum: h.sum(),
                        },
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }

    /// Registered metric names, in export (sorted) order.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .read()
            .expect("metrics registry poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Export as JSON with deterministically ordered keys. `Canonical` mode
    /// drops advisory instruments entirely.
    pub fn export_json(&self, mode: ExportMode) -> String {
        let entries = self.entries.read().expect("metrics registry poisoned");
        let keep =
            |det: &Determinism| mode == ExportMode::Full || *det == Determinism::Deterministic;

        let mut out = String::from("{\n");
        let sections: [(&str, InstrumentFilter); 3] = [
            ("counters", |i| matches!(i, Instrument::Counter(_))),
            ("gauges", |i| matches!(i, Instrument::Gauge(_))),
            ("histograms", |i| matches!(i, Instrument::Histogram(_))),
        ];
        for (si, (section, belongs)) in sections.iter().enumerate() {
            let _ = write!(out, "  \"{section}\": {{");
            let mut first = true;
            for (name, (_, instrument)) in entries
                .iter()
                .filter(|(_, (det, i))| keep(det) && belongs(i))
            {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                push_str_literal(&mut out, name);
                out.push_str(": ");
                match instrument {
                    Instrument::Counter(h) => {
                        let _ = write!(out, "{}", h.get());
                    }
                    Instrument::Gauge(h) => {
                        let _ = write!(out, "{{\"level\": {}, \"peak\": {}}}", h.level(), h.peak());
                    }
                    Instrument::Histogram(h) => {
                        out.push_str("{\"bounds\": ");
                        push_int_array(&mut out, h.bounds());
                        out.push_str(", \"buckets\": ");
                        push_int_array(&mut out, h.bucket_counts().into_iter().map(|c| c as i64));
                        let _ = write!(out, ", \"count\": {}, \"sum\": {}}}", h.count(), h.sum());
                    }
                }
            }
            if !first {
                out.push_str("\n  ");
            }
            out.push('}');
            if si + 1 < sections.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("scan.messages", Determinism::Deterministic);
        let b = reg.counter("scan.messages", Determinism::Deterministic);
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);

        let g = reg.gauge("stream.in_flight", Determinism::Advisory);
        assert_eq!(g.add(5), 5);
        g.sub(3);
        g.sub(10); // saturates at zero
        assert_eq!(g.level(), 0);
        assert_eq!(g.peak(), 5);
        g.note(9);
        assert_eq!(g.peak(), 9);
    }

    #[test]
    fn histogram_buckets_observations_with_overflow() {
        let h = HistogramHandle::with_bounds(&[1, 10, 100]);
        for v in [0, 1, 2, 10, 11, 1000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), [2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1024);
    }

    #[test]
    fn canonical_export_filters_advisory_and_sorts_keys() {
        let reg = MetricsRegistry::new();
        reg.counter("z.det", Determinism::Deterministic).add(1);
        reg.counter("a.det", Determinism::Deterministic).add(2);
        reg.counter("cache.artifact.hits", Determinism::Advisory)
            .add(99);
        reg.histogram("visit.latency_s", Determinism::Deterministic, &[1, 5])
            .observe(3);

        let canonical = reg.export_json(ExportMode::Canonical);
        assert!(!canonical.contains("cache.artifact.hits"));
        assert!(canonical.find("\"a.det\"").unwrap() < canonical.find("\"z.det\"").unwrap());
        assert!(canonical
            .contains("\"visit.latency_s\": {\"bounds\": [1,5], \"buckets\": [0,1,0], \"count\": 1, \"sum\": 3}"));

        let full = reg.export_json(ExportMode::Full);
        assert!(full.contains("\"cache.artifact.hits\": 99"));
    }

    #[test]
    fn empty_registry_exports_stable_skeleton() {
        let reg = MetricsRegistry::new();
        assert_eq!(
            reg.export_json(ExportMode::Canonical),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
        assert!(reg.names().is_empty());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", Determinism::Deterministic);
        reg.gauge("x", Determinism::Deterministic);
    }
}
