//! Structured tracing: flat spans with monotonic timing and key-value
//! fields.
//!
//! A [`crate::SpanGuard`] measures the region between its creation (via
//! [`crate::Telemetry::span`]) and its drop, then stores the finished
//! [`SpanRecord`] in the pipeline's in-memory [`TraceSink`]. No span has
//! a parent: the spans of one transaction are found by their shared
//! trace id ([`crate::trace_id`]), and a [`SpanRecord`] displays as one
//! text line.
//!
//! A record holds no text of its own: its name is a literal, its node a
//! shared string, and its field values integers, literals or shared
//! strings ([`FieldValue`]), rendered only by the exporters.

use crate::metrics::Counter;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, LazyLock};
use std::time::Duration;

/// A finished span as stored in a [`TraceSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `peer.process_block`.
    pub name: &'static str,
    /// Key-value annotations attached while the span was open.
    pub fields: Fields,
    /// Start offset from the telemetry instance's epoch (monotonic).
    pub start: Duration,
    /// Wall time between span open and close.
    pub duration: Duration,
    /// Cross-node trace id ([`crate::trace_id`]); 0 = untraced.
    pub trace_id: u64,
    /// Name of the node that emitted the span; empty = unattributed.
    pub node: Arc<str>,
}

/// One line: name, node, trace id, start offset, duration and fields,
/// with `-` for an unattributed node or an untraced span.
impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = if self.node.is_empty() {
            "-"
        } else {
            &self.node
        };
        write!(f, "{:<18} node={node:<14} trace=", self.name)?;
        if self.trace_id == 0 {
            write!(f, "{:<18}", "-")?;
        } else {
            write!(f, "{:#018x}", self.trace_id)?;
        }
        write!(
            f,
            " start={:>10.3?} dur={:>10.3?}",
            self.start, self.duration
        )?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { " [" } else { " " })?;
        }
        if !self.fields.is_empty() {
            f.write_str("]")?;
        }
        Ok(())
    }
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

/// Thread-safe in-memory span store: where every span of a
/// [`crate::Telemetry`] pipeline lands.
///
/// Retention is bounded: once [`TraceSink::CAPACITY`] records are held,
/// each new span evicts the oldest one, counted in
/// `fabric_trace_spans_evicted_total` ([`TraceSink::evicted`]). A
/// consumer that needs every span of a long run should
/// [`TraceSink::drain`] incrementally instead of letting the run pile up
/// in memory.
#[derive(Debug)]
pub struct TraceSink {
    spans: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    evicted: Counter,
}

impl TraceSink {
    /// Retention cap: deep enough for any single-block forensic window,
    /// shallow enough that an unconsumed sweep stays tens of megabytes,
    /// not unbounded.
    pub const CAPACITY: usize = 65_536;

    /// An empty sink retaining at most `capacity` records, counting
    /// evictions in `evicted`.
    pub(crate) fn new(capacity: usize, evicted: Counter) -> Self {
        TraceSink {
            spans: Mutex::default(),
            capacity,
            evicted,
        }
    }

    /// Retention cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted to honor the cap since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
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

    /// Stores a finished span, evicting the oldest one at the cap.
    pub(crate) fn push(&self, record: SpanRecord) {
        let mut spans = self.spans.lock();
        if spans.len() >= self.capacity {
            spans.pop_front();
            self.evicted.inc();
        }
        spans.push_back(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(capacity: usize) -> TraceSink {
        let registry = crate::MetricsRegistry::new();
        TraceSink::new(capacity, registry.counter("evicted", "", &[]))
    }

    /// A span started `ms` milliseconds after the epoch: the start offset
    /// tells records apart.
    fn span(ms: u64) -> SpanRecord {
        SpanRecord {
            name: "s",
            fields: Fields::default(),
            start: Duration::from_millis(ms),
            duration: Duration::from_millis(1),
            trace_id: 0,
            node: unattributed(),
        }
    }

    fn starts(records: &[SpanRecord]) -> Vec<u128> {
        records.iter().map(|r| r.start.as_millis()).collect()
    }

    #[test]
    fn sink_retains_records() {
        let sink = sink(TraceSink::CAPACITY);
        assert!(sink.is_empty());
        sink.push(SpanRecord {
            name: "peer.commit",
            fields: [("k", FieldValue::Static("v"))].into(),
            start: Duration::ZERO,
            duration: Duration::from_millis(10),
            trace_id: 0xab,
            node: Arc::from("peer0.org1"),
        });
        sink.push(span(1));
        assert_eq!(sink.len(), 2);
        let lines: Vec<String> = sink.records().iter().map(|r| r.to_string()).collect();
        assert!(lines[0].starts_with("peer.commit"), "{lines:?}");
        assert!(lines[0].contains("node=peer0.org1"), "{lines:?}");
        assert!(lines[0].contains("trace=0x00000000000000ab"), "{lines:?}");
        assert!(lines[0].ends_with(" [k=v]"), "{lines:?}");
        assert!(lines[1].contains("node=- "), "{lines:?}");
        assert!(lines[1].contains("trace=- "), "{lines:?}");
    }

    #[test]
    fn bounded_sink_evicts_oldest_and_counts_evictions() {
        let sink = sink(3);
        assert_eq!(sink.capacity(), 3);
        for i in 1..=5 {
            sink.push(span(i));
        }
        assert_eq!(sink.len(), 3, "retention cap holds under overflow");
        assert_eq!(sink.evicted(), 2);
        assert_eq!(
            starts(&sink.records()),
            vec![3, 4, 5],
            "oldest records are the ones evicted"
        );
    }

    #[test]
    fn drain_consumes_each_record_exactly_once() {
        let sink = sink(8);
        sink.push(span(1));
        sink.push(span(2));
        assert_eq!(starts(&sink.drain()), vec![1, 2]);
        assert!(sink.is_empty());
        sink.push(span(3));
        assert_eq!(
            starts(&sink.drain()),
            vec![3],
            "a second drain sees only new records"
        );
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
        let sink = TraceSink::new(1, counter.clone());
        sink.push(span(1));
        assert_eq!(counter.get(), 0, "filling to the cap is not an eviction");
        sink.push(span(2));
        sink.push(span(3));
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
