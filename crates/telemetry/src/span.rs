//! Structured tracing: spans with monotonic timing and key-value fields.
//!
//! A [`SpanGuard`] measures the region between its creation (via
//! [`crate::Telemetry::span`] or [`SpanGuard::child`]) and its drop, then
//! hands the finished [`SpanRecord`] to the telemetry's [`Collector`].
//! The in-memory [`TraceSink`] collector retains records and renders a
//! flamegraph-style text tree ([`TraceSink::render_tree`]).
//!
//! A record holds no text of its own: its name is a literal, its node a
//! shared string, and its field values integers, literals or shared
//! strings ([`FieldValue`]), rendered only by the exporters.

use crate::audit::AuditEvent;
use crate::metrics::Counter;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::{Arc, LazyLock, OnceLock};
use std::time::Duration;

/// A finished span as delivered to a [`Collector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within one [`crate::Telemetry`] instance.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `peer.process_block`.
    pub name: &'static str,
    /// Key-value annotations attached while the span was open.
    pub fields: Fields,
    /// Start offset from the telemetry instance's epoch (monotonic).
    pub start: Duration,
    /// Wall time between span open and close.
    pub duration: Duration,
    /// Cross-node trace id ([`crate::TraceContext`]); 0 = untraced.
    pub trace_id: u64,
    /// Name of the node that emitted the span; empty = unattributed.
    pub node: Arc<str>,
}

/// The node of an unattributed span: one shared empty string.
pub(crate) fn unattributed() -> Arc<str> {
    static EMPTY: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from(""));
    EMPTY.clone()
}

/// A span field's value, kept as it was given; the text is produced only
/// when a record is rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A count, index or number.
    U64(u64),
    /// A literal, e.g. a validation code's name.
    Static(&'static str),
    /// A shared identifier, e.g. a chaincode name.
    Shared(Arc<str>),
    /// Text copied for this span alone: the one field kind that allocates.
    Owned(Box<str>),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(n) => write!(f, "{n}"),
            FieldValue::Static(s) => f.write_str(s),
            FieldValue::Shared(s) => f.write_str(s),
            FieldValue::Owned(s) => f.write_str(s),
        }
    }
}

/// The filler of an unused inline [`Fields`] slot.
impl Default for FieldValue {
    fn default() -> Self {
        FieldValue::U64(0)
    }
}

impl From<u64> for FieldValue {
    fn from(n: u64) -> Self {
        FieldValue::U64(n)
    }
}

impl From<usize> for FieldValue {
    fn from(n: usize) -> Self {
        FieldValue::U64(n as u64)
    }
}

impl From<&'static str> for FieldValue {
    fn from(s: &'static str) -> Self {
        FieldValue::Static(s)
    }
}

impl From<&Arc<str>> for FieldValue {
    fn from(s: &Arc<str>) -> Self {
        FieldValue::Shared(s.clone())
    }
}

impl From<Box<str>> for FieldValue {
    fn from(s: Box<str>) -> Self {
        FieldValue::Owned(s)
    }
}

/// Fields held inline before the rest spill to the heap; no span the
/// pipeline records has more.
const INLINE_FIELDS: usize = 3;

/// A span's fields in insertion order: the first three inline, any
/// further ones in a spill `Vec`.
#[derive(Debug, Clone, Default)]
pub struct Fields {
    /// The first `inline_len` slots are set; the rest hold `("", U64(0))`.
    inline: [(&'static str, FieldValue); INLINE_FIELDS],
    inline_len: u8,
    spill: Vec<(&'static str, FieldValue)>,
}

impl Fields {
    /// Appends a field.
    pub fn push(&mut self, key: &'static str, value: FieldValue) {
        match self.inline.get_mut(usize::from(self.inline_len)) {
            Some(slot) => {
                *slot = (key, value);
                self.inline_len += 1;
            }
            None => self.spill.push((key, value)),
        }
    }

    /// The fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &FieldValue)> {
        self.inline[..usize::from(self.inline_len)]
            .iter()
            .chain(&self.spill)
            .map(|(k, v)| (*k, v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        usize::from(self.inline_len) + self.spill.len()
    }

    /// True when the span has no field.
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Fields {}

impl<const N: usize> From<[(&'static str, FieldValue); N]> for Fields {
    fn from(fields: [(&'static str, FieldValue); N]) -> Self {
        let mut out = Fields::default();
        for (k, v) in fields {
            out.push(k, v);
        }
        out
    }
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

    /// Called when a peer starts validating a new block (default:
    /// ignore). Lets collectors scope per-block state — the
    /// flight recorder uses it to dedup repeated dump triggers within
    /// one block.
    fn block_boundary(&self) {}
}

/// Thread-safe in-memory span store; the default collector.
///
/// Retention is bounded: once `capacity` records are held, each new
/// span evicts the oldest one (counted in [`TraceSink::evicted`], and
/// exported as `fabric_trace_spans_evicted_total` when wired by
/// [`crate::Telemetry`]). A consumer that needs every span of a long run
/// should [`TraceSink::drain`] incrementally instead of letting the run
/// pile up in memory.
#[derive(Debug)]
pub struct TraceSink {
    state: Mutex<SinkState>,
    capacity: usize,
    /// When set, evictions are counted here instead of in
    /// `SinkState::evicted`.
    eviction_counter: OnceLock<Counter>,
}

#[derive(Debug, Default)]
struct SinkState {
    spans: VecDeque<SpanRecord>,
    /// Evictions while no counter was wired.
    evicted: u64,
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
            state: Mutex::default(),
            capacity: capacity.max(1),
            eviction_counter: OnceLock::new(),
        }
    }

    /// Retention cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted to honor the cap since creation.
    pub fn evicted(&self) -> u64 {
        self.state.lock().evicted + self.eviction_counter.get().map_or(0, Counter::get)
    }

    /// Counts later evictions in a registry-exported counter instead
    /// (first call wins; later calls are ignored). [`crate::Telemetry`]
    /// wires this to `fabric_trace_spans_evicted_total`.
    pub fn set_eviction_counter(&self, counter: Counter) {
        let _ = self.eviction_counter.set(counter);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.state.lock().spans.len()
    }

    /// True when no span has finished yet.
    pub fn is_empty(&self) -> bool {
        self.state.lock().spans.is_empty()
    }

    /// Clones out all retained records in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.state.lock().spans.iter().cloned().collect()
    }

    /// Removes and returns all retained records in completion order.
    ///
    /// This is the incremental-consumption hook: a consumer that drains
    /// every logical tick sees each span exactly once and keeps the
    /// sink's retention (and the eviction counter) at zero no matter
    /// how long the run is.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.state.lock().spans.drain(..).collect()
    }

    /// Drops all retained records.
    pub fn clear(&self) {
        self.state.lock().spans.clear();
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
        let mut state = self.state.lock();
        if state.spans.len() >= self.capacity {
            state.spans.pop_front();
            match self.eviction_counter.get() {
                Some(counter) => counter.inc(),
                None => state.evicted += 1,
            }
        }
        state.spans.push_back(record);
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
            name: "root",
            fields: [("k", FieldValue::Static("v"))].into(),
            start: Duration::ZERO,
            duration: Duration::from_millis(10),
            trace_id: 0,
            node: unattributed(),
        });
        sink.span_finished(SpanRecord {
            id: 2,
            parent: Some(1),
            name: "child",
            fields: Fields::default(),
            start: Duration::from_millis(1),
            duration: Duration::from_millis(5),
            trace_id: 0,
            node: unattributed(),
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
            name: "s",
            fields: Fields::default(),
            start: Duration::from_millis(id),
            duration: Duration::from_millis(1),
            trace_id: 0,
            node: unattributed(),
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
        assert_eq!(counter.get(), 2, "evictions land in the exported metric");
    }

    #[test]
    fn fields_spill_past_the_inline_slots_in_order() {
        let mut fields = Fields::default();
        assert!(fields.is_empty());
        for (i, key) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            fields.push(key, FieldValue::U64(i as u64));
        }
        assert_eq!(fields.len(), 5);
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "c", "d", "e"]);
        assert_eq!(
            fields,
            [
                ("a", FieldValue::U64(0)),
                ("b", FieldValue::U64(1)),
                ("c", FieldValue::U64(2)),
                ("d", FieldValue::U64(3)),
                ("e", FieldValue::U64(4)),
            ]
            .into()
        );
        assert_ne!(fields, [("a", FieldValue::U64(0))].into());
    }
}
