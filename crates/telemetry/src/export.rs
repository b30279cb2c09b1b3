//! Trace exporters: JSONL event log and Chrome `trace_event` JSON.
//!
//! Both walk the message-ordered trace in a single deterministic pass, so a
//! canonical export is byte-identical for byte-identical traces. JSONL is
//! the grep-able archival format (one event per line, committed as golden
//! files); the Chrome format loads into `chrome://tracing` / Perfetto with
//! one track (`tid`) per message.

use crate::json::{push_field_array, push_field_object, push_str_literal};
use crate::trace::{Trace, TraceEvent};
use crate::ExportMode;
use std::fmt::Write;

impl Trace {
    /// Export as JSONL: one event per line, `t` in sim-seconds from the
    /// start of the message's scan, `seq` restarting per message. Canonical
    /// mode omits advisory fields so the output is byte-identical across
    /// worker counts.
    pub fn to_jsonl(&self, mode: ExportMode) -> String {
        let mut out = String::new();
        let mut seq = 0usize;
        let mut prev_msg = None;
        for m in &self.messages {
            if prev_msg != Some(m.message_id) {
                seq = 0;
                prev_msg = Some(m.message_id);
            }
            for e in &m.events {
                let _ = write!(
                    out,
                    "{{\"msg\":{},\"seq\":{seq},\"t\":{},",
                    m.message_id,
                    e.at()
                );
                match e {
                    TraceEvent::Begin {
                        name,
                        fields,
                        advisory,
                        ..
                    } => {
                        out.push_str("\"ph\":\"B\",\"name\":");
                        push_str_literal(&mut out, name);
                        out.push_str(",\"fields\":");
                        push_field_array(&mut out, fields);
                        if mode == ExportMode::Full && !advisory.is_empty() {
                            out.push_str(",\"adv\":");
                            push_field_array(&mut out, advisory);
                        }
                    }
                    TraceEvent::End { name, .. } => {
                        out.push_str("\"ph\":\"E\",\"name\":");
                        push_str_literal(&mut out, name);
                    }
                    TraceEvent::Instant {
                        name,
                        fields,
                        advisory,
                        ..
                    } => {
                        out.push_str("\"ph\":\"I\",\"name\":");
                        push_str_literal(&mut out, name);
                        out.push_str(",\"fields\":");
                        push_field_array(&mut out, fields);
                        if mode == ExportMode::Full && !advisory.is_empty() {
                            out.push_str(",\"adv\":");
                            push_field_array(&mut out, advisory);
                        }
                    }
                }
                out.push_str("}\n");
                seq += 1;
            }
        }
        out
    }

    /// Export in Chrome `trace_event` format: sim-seconds become
    /// microseconds (`ts`), each message becomes its own thread track
    /// (`tid`), structured fields become `args`.
    pub fn to_chrome(&self, mode: ExportMode) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for m in &self.messages {
            for e in &m.events {
                if !first {
                    out.push(',');
                }
                first = false;
                let ts = e.at() * 1_000_000;
                out.push_str("\n{\"name\":");
                push_str_literal(&mut out, e.name());
                match e {
                    TraceEvent::Begin {
                        fields, advisory, ..
                    } => {
                        let _ = write!(
                            out,
                            ",\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"args\":",
                            m.message_id
                        );
                        push_args(&mut out, fields, advisory, mode);
                    }
                    TraceEvent::End { .. } => {
                        let _ = write!(
                            out,
                            ",\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{ts}",
                            m.message_id
                        );
                    }
                    TraceEvent::Instant {
                        fields, advisory, ..
                    } => {
                        let _ = write!(
                            out,
                            ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"args\":",
                            m.message_id
                        );
                        push_args(&mut out, fields, advisory, mode);
                    }
                }
                out.push('}');
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

fn push_args(
    out: &mut String,
    fields: &[(&'static str, String)],
    advisory: &[(&'static str, String)],
    mode: ExportMode,
) {
    if mode == ExportMode::Full {
        push_field_object(out, &[fields, advisory]);
    } else {
        push_field_object(out, &[fields]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::with_active;

    fn sample() -> Trace {
        let tracer = Tracer::new(true);
        crate::set_worker(Some(2));
        {
            let _g = tracer.message(1).unwrap();
            with_active(|t| {
                t.begin("visit", vec![("url", "http://a/".into())]);
                t.advance(3);
                t.instant_adv("screenshot", Vec::new(), vec![("cache", "hit".into())]);
                t.end();
            });
        }
        crate::set_worker(None);
        tracer.delivery(1, vec![("order", "0".into())]);
        tracer.take()
    }

    #[test]
    fn jsonl_canonical_strips_advisory_and_is_line_per_event() {
        let trace = sample();
        let canonical = trace.to_jsonl(ExportMode::Canonical);
        assert_eq!(canonical.lines().count(), trace.event_count());
        assert!(!canonical.contains("\"adv\""));
        assert!(!canonical.contains("worker"));
        assert!(canonical.contains("\"name\":\"sink.deliver\""));
        assert!(canonical.contains(
            r#"{"msg":1,"seq":1,"t":0,"ph":"B","name":"visit","fields":[["url","http://a/"]]}"#
        ));
        assert!(canonical.contains("\"t\":3"));

        let full = trace.to_jsonl(ExportMode::Full);
        assert!(full.contains(r#""adv":[["worker","2"]]"#));
        assert!(full.contains(r#""adv":[["cache","hit"]]"#));
    }

    #[test]
    fn jsonl_seq_restarts_per_message_and_spans_balance() {
        let tracer = Tracer::new(true);
        drop(tracer.message(0).unwrap());
        drop(tracer.message(5).unwrap());
        let jsonl = tracer.take().to_jsonl(ExportMode::Canonical);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with(r#"{"msg":0,"seq":0,"#));
        assert!(lines[1].starts_with(r#"{"msg":0,"seq":1,"#));
        assert!(lines[2].starts_with(r#"{"msg":5,"seq":0,"#));
        let begins = lines.iter().filter(|l| l.contains("\"ph\":\"B\"")).count();
        let ends = lines.iter().filter(|l| l.contains("\"ph\":\"E\"")).count();
        assert_eq!(begins, ends);
    }

    #[test]
    fn chrome_export_scales_to_microseconds_per_message_track() {
        let chrome = sample().to_chrome(ExportMode::Canonical);
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(chrome.ends_with("\n]}\n"));
        assert!(chrome.contains(r#""ph":"B","pid":1,"tid":1,"ts":0,"args":{"url":"http://a/"}"#));
        assert!(chrome.contains("\"ts\":3000000"));
        assert!(!chrome.contains("worker"));
        let full = sample().to_chrome(ExportMode::Full);
        assert!(full.contains(r#""args":{"worker":"2"}"#));
        assert!(full.contains(r#""args":{"cache":"hit"}"#));
    }

    #[test]
    fn identical_recordings_export_identical_bytes() {
        let a = sample();
        let b = sample();
        assert_eq!(
            a.to_jsonl(ExportMode::Canonical),
            b.to_jsonl(ExportMode::Canonical)
        );
        assert_eq!(
            a.to_chrome(ExportMode::Canonical),
            b.to_chrome(ExportMode::Canonical)
        );
    }
}
