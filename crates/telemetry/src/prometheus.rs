//! Prometheus text-format export of the metrics registry (DESIGN.md §15).
//!
//! The daemon's `/metrics` endpoint serves several registries at once —
//! the daemon's own instruments plus one registry per store partition —
//! so the exporter works in two stages:
//!
//! 1. [`MetricsRegistry::snapshot`] captures every instrument's value
//!    under the registry lock (respecting the [`ExportMode`] determinism
//!    filter), producing an owned [`MetricsSnapshot`] that can outlive
//!    any store locks.
//! 2. [`render_prometheus`] merges any number of `(labels, snapshot)`
//!    sections into one exposition: metrics are grouped by name so each
//!    `# TYPE` line appears exactly once, with one sample line per
//!    labelled section — which is what Prometheus requires when the same
//!    metric (`cb_store_append_records`) is reported by every partition.
//!
//! Rendering is deterministic: names sort via the registry's `BTreeMap`,
//! sections render in argument order, and values are integers throughout
//! (sim-time seconds, counts, bytes), so a fixed seed produces
//! byte-identical text across worker counts in `Canonical` mode — the same
//! contract the JSON exports already keep.

use crate::metrics::MetricsRegistry;
use crate::ExportMode;
use std::fmt::Write;

/// One instrument's captured value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Gauge level and high-watermark.
    Gauge {
        /// Current level.
        level: u64,
        /// Highest level (or noted value) seen.
        peak: u64,
    },
    /// Fixed-bucket histogram contents.
    Histogram {
        /// Inclusive upper bounds (overflow bucket excluded).
        bounds: Vec<i64>,
        /// Per-bucket counts, overflow bucket last.
        buckets: Vec<u64>,
        /// Observation count.
        count: u64,
        /// Observation sum.
        sum: i64,
    },
}

/// A point-in-time capture of one registry: `(name, value)` in sorted
/// name order.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Captured instruments, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

/// Sanitize a registry metric name (`store.append.records`) into a
/// Prometheus metric name (`cb_store_append_records`).
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("cb_");
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() && !(i == 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escape a label value per the exposition format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(&v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render labelled snapshot sections as one Prometheus text exposition.
///
/// Every distinct metric name gets exactly one `# TYPE` line followed by
/// one sample (or bucket set) per section that carries it. Gauges render
/// as two series: the level under the metric name and the peak under
/// `<name>_peak`. Histograms render cumulative `_bucket` series plus
/// `_sum` and `_count`.
pub fn render_prometheus(sections: &[(Vec<(String, String)>, MetricsSnapshot)]) -> String {
    // name → [(section index, value)] in section order; names sorted.
    let mut by_name: std::collections::BTreeMap<&str, Vec<(usize, &MetricValue)>> =
        std::collections::BTreeMap::new();
    for (si, (_, snapshot)) in sections.iter().enumerate() {
        for (name, value) in &snapshot.entries {
            by_name.entry(name.as_str()).or_default().push((si, value));
        }
    }
    let mut out = String::new();
    for (name, values) in by_name {
        let prom = prometheus_name(name);
        let kind = match values[0].1 {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        };
        let _ = writeln!(out, "# TYPE {prom} {kind}");
        let mut peaks: Vec<(usize, u64)> = Vec::new();
        for (si, value) in &values {
            let labels = &sections[*si].0;
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{prom}{} {v}", label_block(labels, None));
                }
                MetricValue::Gauge { level, peak } => {
                    let _ = writeln!(out, "{prom}{} {level}", label_block(labels, None));
                    peaks.push((*si, *peak));
                }
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                } => {
                    let mut cumulative = 0u64;
                    for (bound, bucket) in bounds.iter().zip(buckets) {
                        cumulative += bucket;
                        let _ = writeln!(
                            out,
                            "{prom}_bucket{} {cumulative}",
                            label_block(labels, Some(("le", bound.to_string()))),
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{prom}_bucket{} {count}",
                        label_block(labels, Some(("le", "+Inf".to_string()))),
                    );
                    let _ = writeln!(out, "{prom}_sum{} {sum}", label_block(labels, None));
                    let _ = writeln!(out, "{prom}_count{} {count}", label_block(labels, None));
                }
            }
        }
        if !peaks.is_empty() {
            let _ = writeln!(out, "# TYPE {prom}_peak gauge");
            for (si, peak) in peaks {
                let _ = writeln!(
                    out,
                    "{prom}_peak{} {peak}",
                    label_block(&sections[si].0, None)
                );
            }
        }
    }
    out
}

impl MetricsRegistry {
    /// Render this registry alone as Prometheus text. `Canonical` mode
    /// drops advisory instruments, exactly like [`export_json`].
    ///
    /// [`export_json`]: MetricsRegistry::export_json
    pub fn export_prometheus(&self, mode: ExportMode) -> String {
        render_prometheus(&[(Vec::new(), self.snapshot(mode))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Determinism;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("scan.messages", Determinism::Deterministic)
            .add(7);
        reg.counter("cache.artifact.hits", Determinism::Advisory)
            .add(3);
        reg.gauge("store.append.pending", Determinism::Deterministic)
            .add(4);
        reg.histogram("visit.latency_s", Determinism::Deterministic, &[1, 5])
            .observe(3);
        reg.histogram("visit.latency_s", Determinism::Deterministic, &[1, 5])
            .observe(9);
        reg
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            prometheus_name("store.append.records"),
            "cb_store_append_records"
        );
        assert_eq!(prometheus_name("9weird-name"), "cb__weird_name");
    }

    #[test]
    fn renders_types_samples_and_histogram_buckets() {
        let text = sample_registry().export_prometheus(ExportMode::Full);
        assert!(text.contains("# TYPE cb_scan_messages counter\ncb_scan_messages 7\n"));
        assert!(text.contains("# TYPE cb_cache_artifact_hits counter\ncb_cache_artifact_hits 3\n"));
        assert!(text.contains("# TYPE cb_store_append_pending gauge\ncb_store_append_pending 4\n"));
        assert!(text.contains(
            "# TYPE cb_store_append_pending_peak gauge\ncb_store_append_pending_peak 4\n"
        ));
        // Cumulative buckets: 1 observation ≤5, 1 overflow.
        assert!(text.contains("cb_visit_latency_s_bucket{le=\"1\"} 0\n"));
        assert!(text.contains("cb_visit_latency_s_bucket{le=\"5\"} 1\n"));
        assert!(text.contains("cb_visit_latency_s_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("cb_visit_latency_s_sum 12\n"));
        assert!(text.contains("cb_visit_latency_s_count 2\n"));
    }

    #[test]
    fn canonical_mode_filters_advisory_instruments() {
        let text = sample_registry().export_prometheus(ExportMode::Canonical);
        assert!(!text.contains("cb_cache_artifact_hits"));
        assert!(text.contains("cb_scan_messages 7"));
    }

    #[test]
    fn multi_section_rendering_emits_one_type_line_per_name() {
        let a = sample_registry();
        let b = sample_registry();
        b.counter("scan.messages", Determinism::Deterministic)
            .add(1);
        let text = render_prometheus(&[
            (
                vec![("partition".into(), "0".into())],
                a.snapshot(ExportMode::Full),
            ),
            (
                vec![("partition".into(), "1".into())],
                b.snapshot(ExportMode::Full),
            ),
        ]);
        assert_eq!(text.matches("# TYPE cb_scan_messages counter").count(), 1);
        assert!(text.contains("cb_scan_messages{partition=\"0\"} 7\n"));
        assert!(text.contains("cb_scan_messages{partition=\"1\"} 8\n"));
        assert!(text.contains("cb_visit_latency_s_bucket{partition=\"0\",le=\"+Inf\"} 2\n"));
    }

    #[test]
    fn export_is_deterministic_for_equal_registries() {
        let a = sample_registry().export_prometheus(ExportMode::Full);
        let b = sample_registry().export_prometheus(ExportMode::Full);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
