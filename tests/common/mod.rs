//! The fresh-box reference scan the determinism suites compare against.
//!
//! Each message is scanned at one worker by its own new `CrawlerBox`, so
//! no artifact-memo or screenshot-cache entry can carry from one message
//! to the next. A shared box at any worker count must reproduce its bytes.

use cb_netsim::Internet;
use cb_phishgen::ReportedMessage;
use cb_telemetry::Trace;
use crawlerbox::{CrawlerBox, ScanRecord};

/// Scan `messages` through the fresh-box reference. `configure` sets up
/// every box (artifact capture, tracing, a shared metrics registry). The
/// boxes' traces come back merged; they are empty unless `configure`
/// turns tracing on.
pub fn fresh_box_scan<'w>(
    world: &'w Internet,
    messages: &[ReportedMessage],
    configure: impl Fn(CrawlerBox<'w>) -> CrawlerBox<'w>,
) -> (Vec<ScanRecord>, Trace) {
    let mut records = Vec::with_capacity(messages.len());
    let mut traces = Vec::with_capacity(messages.len());
    for message in messages {
        let mut cbx = configure(CrawlerBox::new(world));
        cbx.parallelism = 1;
        records.extend(cbx.scan_all(std::slice::from_ref(message)));
        traces.push(cbx.take_trace());
    }
    (records, Trace::merge(traces))
}
