//! Structured tracing: spans with monotonic timing and key-value fields.
//!
//! A [`SpanGuard`] measures the region between its creation (via
//! [`crate::Telemetry::span`] or [`SpanGuard::child`]) and its drop, then
//! hands the finished [`SpanRecord`] to the telemetry's [`Collector`].
//! The in-memory [`TraceSink`] collector retains records and renders a
//! flamegraph-style text tree ([`TraceSink::render_tree`]).

use crate::audit::AuditEvent;
use crate::metrics::Counter;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// A finished span as delivered to a [`Collector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within one [`crate::Telemetry`] instance.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `peer.process_block`.
    pub name: String,
    /// Key-value annotations attached while the span was open.
    pub fields: Vec<(String, String)>,
    /// Start offset from the telemetry instance's epoch (monotonic).
    pub start: Duration,
    /// Wall time between span open and close.
    pub duration: Duration,
    /// Cross-node trace id ([`crate::TraceContext`]); 0 = untraced.
    pub trace_id: u64,
    /// Name of the node that emitted the span; empty = unattributed.
    pub node: String,
}

/// Receives finished spans and emitted audit events.
///
/// Implementations must be cheap and non-blocking: collectors run inline
/// on validation hot paths.
pub trait Collector: Send + Sync {
    /// Called when a span closes.
    fn span_finished(&self, record: SpanRecord);

    /// Called for every emitted audit event (default: ignore).
    fn audit_event(&self, event: &AuditEvent) {
        let _ = event;
    }

    /// Called when the commit pipeline starts merging a new block
    /// (default: ignore). Lets collectors scope per-block state — the
    /// flight recorder uses it to dedup repeated dump triggers within
    /// one block.
    fn block_boundary(&self) {}
}

/// A collector that discards everything (for overhead measurement and
/// telemetry-disabled-but-wired configurations).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopCollector;

impl Collector for NoopCollector {
    fn span_finished(&self, _record: SpanRecord) {}
}

/// Thread-safe in-memory span store; the default collector.
///
/// Retention is bounded: once `capacity` records are held, each new
/// span evicts the oldest one (counted in [`TraceSink::evicted`] and,
/// when wired by [`crate::Telemetry`], mirrored into the
/// `fabric_trace_spans_evicted_total` counter). A consumer that needs
/// every span of a long run should [`TraceSink::drain`] incrementally
/// instead of letting the run pile up in memory.
#[derive(Debug)]
pub struct TraceSink {
    spans: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    evicted: AtomicU64,
    eviction_counter: OnceLock<Counter>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// Default retention cap used by [`crate::Telemetry::new`]: deep
    /// enough for any single-block forensic window, shallow enough that
    /// an unconsumed sweep stays tens of megabytes, not unbounded.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates an empty sink with the default retention cap.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty sink retaining at most `capacity` records
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            spans: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            evicted: AtomicU64::new(0),
            eviction_counter: OnceLock::new(),
        }
    }

    /// Retention cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted to honor the cap since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Mirrors evictions into a registry-exported counter (first call
    /// wins; later calls are ignored). [`crate::Telemetry`] wires this
    /// to `fabric_trace_spans_evicted_total`.
    pub fn set_eviction_counter(&self, counter: Counter) {
        let _ = self.eviction_counter.set(counter);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// True when no span has finished yet.
    pub fn is_empty(&self) -> bool {
        self.spans.lock().is_empty()
    }

    /// Clones out all retained records in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().iter().cloned().collect()
    }

    /// Removes and returns all retained records in completion order.
    ///
    /// This is the incremental-consumption hook: a consumer that drains
    /// every logical tick sees each span exactly once and keeps the
    /// sink's retention (and the eviction counter) at zero no matter
    /// how long the run is.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.spans.lock().drain(..).collect()
    }

    /// Drops all retained records.
    pub fn clear(&self) {
        self.spans.lock().clear();
    }

    /// Renders the retained spans as an indented tree, one root per
    /// top-level span, with durations and percent-of-root shares —
    /// a text-mode flamegraph.
    pub fn render_tree(&self) -> String {
        let mut records = self.records();
        records.sort_by_key(|r| r.start);
        let mut out = String::new();
        let roots: Vec<&SpanRecord> = records.iter().filter(|r| r.parent.is_none()).collect();
        for root in roots {
            render_node(&mut out, &records, root, root.duration, 0);
        }
        out
    }
}

fn render_node(
    out: &mut String,
    records: &[SpanRecord],
    node: &SpanRecord,
    root_duration: Duration,
    depth: usize,
) {
    let indent = "  ".repeat(depth);
    let mut line = format!("{indent}{}", node.name);
    if !node.fields.is_empty() {
        line.push_str(" [");
        for (i, (k, v)) in node.fields.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            let _ = write!(line, "{k}={v}");
        }
        line.push(']');
    }
    let pad = 48usize.saturating_sub(line.len()).max(1);
    let share = if root_duration.as_nanos() == 0 || depth == 0 {
        String::new()
    } else {
        format!(
            "  ({:.1}%)",
            100.0 * node.duration.as_secs_f64() / root_duration.as_secs_f64()
        )
    };
    let _ = writeln!(
        out,
        "{line} {} {:>10.3?}{share}",
        ".".repeat(pad),
        node.duration
    );
    for child in records.iter().filter(|r| r.parent == Some(node.id)) {
        render_node(out, records, child, root_duration, depth + 1);
    }
}

impl Collector for TraceSink {
    fn span_finished(&self, record: SpanRecord) {
        let mut spans = self.spans.lock();
        if spans.len() >= self.capacity {
            spans.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
            if let Some(counter) = self.eviction_counter.get() {
                counter.inc();
            }
        }
        spans.push_back(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_retains_records() {
        let sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.span_finished(SpanRecord {
            id: 1,
            parent: None,
            name: "root".into(),
            fields: vec![("k".into(), "v".into())],
            start: Duration::ZERO,
            duration: Duration::from_millis(10),
            trace_id: 0,
            node: String::new(),
        });
        sink.span_finished(SpanRecord {
            id: 2,
            parent: Some(1),
            name: "child".into(),
            fields: vec![],
            start: Duration::from_millis(1),
            duration: Duration::from_millis(5),
            trace_id: 0,
            node: String::new(),
        });
        assert_eq!(sink.len(), 2);
        let tree = sink.render_tree();
        assert!(tree.contains("root [k=v]"), "{tree}");
        assert!(tree.contains("  child"), "{tree}");
        assert!(tree.contains("(50.0%)"), "{tree}");
    }

    fn span(id: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            name: format!("s{id}"),
            fields: vec![],
            start: Duration::from_millis(id),
            duration: Duration::from_millis(1),
            trace_id: 0,
            node: String::new(),
        }
    }

    #[test]
    fn bounded_sink_evicts_oldest_and_counts_evictions() {
        let sink = TraceSink::with_capacity(3);
        assert_eq!(sink.capacity(), 3);
        for i in 1..=5 {
            sink.span_finished(span(i));
        }
        assert_eq!(sink.len(), 3, "retention cap holds under overflow");
        assert_eq!(sink.evicted(), 2);
        let ids: Vec<u64> = sink.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 4, 5], "oldest records are the ones evicted");
    }

    #[test]
    fn drain_consumes_each_record_exactly_once() {
        let sink = TraceSink::with_capacity(8);
        sink.span_finished(span(1));
        sink.span_finished(span(2));
        let first: Vec<u64> = sink.drain().iter().map(|r| r.id).collect();
        assert_eq!(first, vec![1, 2]);
        assert!(sink.is_empty());
        sink.span_finished(span(3));
        let second: Vec<u64> = sink.drain().iter().map(|r| r.id).collect();
        assert_eq!(second, vec![3], "a second drain sees only new records");
        assert_eq!(
            sink.evicted(),
            0,
            "incremental drains never trip the retention cap"
        );
    }

    #[test]
    fn eviction_counter_mirrors_into_exported_metric() {
        let registry = crate::MetricsRegistry::new();
        let counter = registry.counter("fabric_trace_spans_evicted_total", "evictions", &[]);
        let sink = TraceSink::with_capacity(1);
        sink.set_eviction_counter(counter.clone());
        sink.span_finished(span(1));
        assert_eq!(counter.get(), 0, "filling to the cap is not an eviction");
        sink.span_finished(span(2));
        sink.span_finished(span(3));
        assert_eq!(sink.evicted(), 2);
        assert_eq!(counter.get(), 2, "metric mirrors the sink's counter");
    }
}
