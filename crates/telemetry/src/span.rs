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
//! strings ([`FieldValue`]), rendered only by the exporters. The sink
//! packs each into 64 bytes and resolves it back on read.

use crate::metrics::Counter;
use fabric_wire::IdMap;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::fmt;
use std::hash::Hash;
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

    /// The fields in insertion order, by value.
    fn into_entries(self) -> impl Iterator<Item = (&'static str, FieldValue)> {
        self.inline
            .into_iter()
            .take(usize::from(self.inline_len))
            .chain(self.spill)
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
/// Each finished span is kept as one 64-byte record: trace id, start and
/// duration in nanoseconds, small ids for the name, the node and three
/// field keys, and three 8-byte value slots holding an integer or a
/// literal's id. Literals and node names are interned in tables the sink
/// keeps under its lock. A [`FieldValue::Shared`] or
/// [`FieldValue::Owned`] value, and every field past the third, goes
/// into an out-of-line FIFO that its record takes along when evicted or
/// drained. [`TraceSink::records`] and [`TraceSink::drain`] resolve the
/// records back into [`SpanRecord`]s.
///
/// Retention is bounded: once [`TraceSink::CAPACITY`] records are held,
/// each new span evicts the oldest one, counted in
/// `fabric_trace_spans_evicted_total` ([`TraceSink::evicted`]). A
/// consumer that needs every span of a long run should
/// [`TraceSink::drain`] incrementally instead of letting the run pile up
/// in memory.
#[derive(Debug)]
pub struct TraceSink {
    store: Mutex<Store>,
    capacity: usize,
    evicted: Counter,
}

impl TraceSink {
    /// Retention cap: deep enough for any single-block forensic window,
    /// shallow enough that an unconsumed sweep stays a few megabytes,
    /// not unbounded.
    pub const CAPACITY: usize = 65_536;

    /// An empty sink retaining at most `capacity` records, counting
    /// evictions in `evicted`.
    pub(crate) fn new(capacity: usize, evicted: Counter) -> Self {
        TraceSink {
            store: Mutex::default(),
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
        self.store.lock().records.len()
    }

    /// True when no span has finished yet.
    pub fn is_empty(&self) -> bool {
        self.store.lock().records.is_empty()
    }

    /// Clones out all retained records in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        let store = self.store.lock();
        let mut values = store.out_of_line.iter().cloned();
        store
            .records
            .iter()
            .map(|packed| store.vocabulary.unpack(packed, &mut values))
            .collect()
    }

    /// Removes and returns all retained records in completion order.
    ///
    /// This is the incremental-consumption hook: a consumer that drains
    /// every logical tick sees each span exactly once and keeps the
    /// sink's retention (and the eviction counter) at zero no matter
    /// how long the run is.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut store = self.store.lock();
        let Store {
            records,
            out_of_line,
            vocabulary,
        } = &mut *store;
        let mut values = out_of_line.drain(..);
        records
            .drain(..)
            .map(|packed| vocabulary.unpack(&packed, &mut values))
            .collect()
    }

    /// Stores a finished span, evicting the oldest one at the cap.
    pub(crate) fn push(&self, record: SpanRecord) {
        let mut store = self.store.lock();
        if store.records.len() >= self.capacity {
            if let Some(oldest) = store.records.pop_front() {
                store.out_of_line.drain(..oldest.out_of_line());
            }
            self.evicted.inc();
        }
        let packed = store.pack(record);
        store.records.push_back(packed);
    }
}

/// The id of a name or node that sits in the out-of-line FIFO instead.
const OUT_OF_LINE_ID: u16 = u16::MAX;

/// What an inline value slot holds: two bits per slot in
/// [`Packed::kinds`].
const KIND_U64: u8 = 0;
const KIND_LITERAL: u8 = 1;
const KIND_OUT_OF_LINE: u8 = 2;

/// A finished span as a [`TraceSink`] keeps it: one cache line.
#[derive(Debug)]
#[repr(align(64))]
struct Packed {
    trace_id: u64,
    start_ns: u64,
    duration_ns: u64,
    /// Inline field values: the integer, or the literal's id.
    values: [u64; INLINE_FIELDS],
    /// Fields after the inline ones, each a key and a value out of line.
    extra: u32,
    /// Literal id, or [`OUT_OF_LINE_ID`].
    name: u16,
    /// Node id, or [`OUT_OF_LINE_ID`].
    node: u16,
    /// Literal ids of the inline fields' keys.
    keys: [u16; INLINE_FIELDS],
    /// Two bits per inline slot: `KIND_*`.
    kinds: u8,
    /// Inline fields in use.
    inline_len: u8,
}

const _: () = assert!(std::mem::size_of::<Packed>() <= 64);

impl Packed {
    fn kind(&self, slot: usize) -> u8 {
        (self.kinds >> (2 * slot)) & 0b11
    }

    /// Entries this record owns in the out-of-line FIFO, in the order
    /// [`Store::pack`] pushed them: the name, the node, the inline values
    /// kept out of line, then a key and a value per extra field.
    fn out_of_line(&self) -> usize {
        usize::from(self.name == OUT_OF_LINE_ID)
            + usize::from(self.node == OUT_OF_LINE_ID)
            + (0..usize::from(self.inline_len))
                .filter(|&slot| self.kind(slot) == KIND_OUT_OF_LINE)
                .count()
            + 2 * self.extra as usize
    }
}

/// A [`TraceSink`]'s contents, behind its one lock.
#[derive(Debug, Default)]
struct Store {
    /// Packed records in completion order.
    records: VecDeque<Packed>,
    /// What the records could not hold inline, in record order.
    out_of_line: VecDeque<FieldValue>,
    vocabulary: Vocabulary,
}

impl Store {
    /// Packs `record`, interning its literals and node and pushing what
    /// does not fit onto the out-of-line FIFO.
    fn pack(&mut self, record: SpanRecord) -> Packed {
        let SpanRecord {
            name,
            fields,
            start,
            duration,
            trace_id,
            node,
        } = record;
        let Store {
            out_of_line,
            vocabulary,
            ..
        } = self;
        let mut packed = Packed {
            trace_id,
            start_ns: nanos(start),
            duration_ns: nanos(duration),
            values: [0; INLINE_FIELDS],
            extra: 0,
            name: vocabulary.literals.id(&name).unwrap_or_else(|| {
                out_of_line.push_back(FieldValue::Static(name));
                OUT_OF_LINE_ID
            }),
            node: vocabulary.nodes.id(&node).unwrap_or_else(|| {
                out_of_line.push_back(FieldValue::Shared(node));
                OUT_OF_LINE_ID
            }),
            keys: [0; INLINE_FIELDS],
            kinds: 0,
            inline_len: 0,
        };
        for (key, value) in fields.into_entries() {
            let slot = usize::from(packed.inline_len);
            let key_id = if packed.extra == 0 && slot < INLINE_FIELDS {
                vocabulary.literals.id(&key)
            } else {
                None
            };
            let Some(key_id) = key_id else {
                // Once one field is out of line, so is every later one.
                out_of_line.push_back(FieldValue::Static(key));
                out_of_line.push_back(value);
                packed.extra += 1;
                continue;
            };
            let literal = match &value {
                FieldValue::Static(text) => vocabulary.literals.id(text),
                _ => None,
            };
            let (kind, inline) = match (value, literal) {
                (FieldValue::U64(n), _) => (KIND_U64, n),
                (_, Some(id)) => (KIND_LITERAL, u64::from(id)),
                (value, None) => {
                    out_of_line.push_back(value);
                    (KIND_OUT_OF_LINE, 0)
                }
            };
            packed.keys[slot] = key_id;
            packed.values[slot] = inline;
            packed.kinds |= kind << (2 * slot);
            packed.inline_len += 1;
        }
        packed
    }
}

/// Nanoseconds of `d`, saturating (at 584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The strings records refer to by id.
#[derive(Debug, Default)]
struct Vocabulary {
    /// Span names, field keys and [`FieldValue::Static`] values.
    literals: Table<&'static str>,
    nodes: Table<Arc<str>>,
}

impl Vocabulary {
    /// Resolves `packed` into the record it was packed from, taking its
    /// out-of-line entries from `values`.
    fn unpack(&self, packed: &Packed, values: &mut impl Iterator<Item = FieldValue>) -> SpanRecord {
        let name = match packed.name {
            OUT_OF_LINE_ID => out_of_line_literal(values),
            id => self.literals.get(id),
        };
        let node = match packed.node {
            OUT_OF_LINE_ID => match out_of_line_value(values) {
                FieldValue::Shared(node) => node,
                other => unreachable!("an out-of-line node, not {other:?}"),
            },
            id => self.nodes.get(id),
        };
        let mut fields = Fields::default();
        for slot in 0..usize::from(packed.inline_len) {
            let value = match packed.kind(slot) {
                KIND_U64 => FieldValue::U64(packed.values[slot]),
                KIND_LITERAL => FieldValue::Static(self.literals.get(packed.values[slot] as u16)),
                _ => out_of_line_value(values),
            };
            fields.push(self.literals.get(packed.keys[slot]), value);
        }
        for _ in 0..packed.extra {
            let key = out_of_line_literal(values);
            fields.push(key, out_of_line_value(values));
        }
        SpanRecord {
            name,
            fields,
            start: Duration::from_nanos(packed.start_ns),
            duration: Duration::from_nanos(packed.duration_ns),
            trace_id: packed.trace_id,
            node,
        }
    }
}

/// The next out-of-line entry of the record being resolved.
fn out_of_line_value(values: &mut impl Iterator<Item = FieldValue>) -> FieldValue {
    values.next().expect("a record's out-of-line entries")
}

/// The next out-of-line entry, a name or a field key.
fn out_of_line_literal(values: &mut impl Iterator<Item = FieldValue>) -> &'static str {
    match out_of_line_value(values) {
        FieldValue::Static(text) => text,
        other => unreachable!("an out-of-line literal, not {other:?}"),
    }
}

/// Interned strings with 16-bit ids: found by the address of a string
/// the table holds, else by text.
#[derive(Debug)]
struct Table<T> {
    entries: Vec<T>,
    by_address: IdMap<(usize, usize), u16>,
    by_text: IdMap<T, u16>,
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table {
            entries: Vec::new(),
            by_address: IdMap::default(),
            by_text: IdMap::default(),
        }
    }
}

impl<T: Borrow<str> + Clone + Eq + Hash> Table<T> {
    /// The id of `text`, interned on first sight; `None` once the table
    /// holds [`OUT_OF_LINE_ID`] strings.
    fn id(&mut self, text: &T) -> Option<u16> {
        let text_str: &str = text.borrow();
        let address = (text_str.as_ptr() as usize, text_str.len());
        if let Some(&id) = self.by_address.get(&address) {
            return Some(id);
        }
        if let Some(&id) = self.by_text.get(text_str) {
            return Some(id);
        }
        let id = u16::try_from(self.entries.len())
            .ok()
            .filter(|&id| id != OUT_OF_LINE_ID)?;
        // The address stays valid: the table holds this string from now on.
        self.entries.push(text.clone());
        self.by_address.insert(address, id);
        self.by_text.insert(text.clone(), id);
        Some(id)
    }

    fn get(&self, id: u16) -> T {
        self.entries[usize::from(id)].clone()
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

    /// A record of a shape picked by `i`: out-of-line values, a spilled
    /// fourth field, an unattributed node.
    fn varied(i: u64) -> SpanRecord {
        let mut fields = Fields::default();
        fields.push("i", FieldValue::U64(i));
        if i.is_multiple_of(2) {
            fields.push("id", FieldValue::Owned(format!("tx{i}").into()));
        }
        if i % 4 == 1 {
            fields.push("chaincode", FieldValue::Shared(Arc::from("trade")));
            fields.push("code", FieldValue::Static("VALID"));
            fields.push("spilled", FieldValue::Owned("x".into()));
        }
        SpanRecord {
            name: if i.is_multiple_of(2) { "even" } else { "odd" },
            fields,
            start: Duration::from_micros(i),
            duration: Duration::from_nanos(i),
            trace_id: i,
            node: match i % 3 {
                0 => unattributed(),
                n => Arc::from(format!("peer{n}")),
            },
        }
    }

    #[test]
    fn completion_order_holds_across_evictions() {
        let sink = sink(3);
        for i in 0..10 {
            sink.push(varied(i));
            let retained: Vec<SpanRecord> = (i.saturating_sub(2)..=i).map(varied).collect();
            assert_eq!(sink.records(), retained, "after span {i}");
        }
        assert_eq!(sink.evicted(), 7);
        assert_eq!(sink.drain(), (7..10).map(varied).collect::<Vec<_>>());
        assert!(sink.store.lock().out_of_line.is_empty());
        sink.push(varied(1));
        assert_eq!(sink.drain(), [varied(1)]);
    }

    /// Fresh strings on every span leave the tables at the vocabulary and
    /// the FIFO at what the retained records hold.
    #[test]
    fn retention_stays_bounded_under_fresh_strings() {
        let telemetry = crate::Telemetry::new();
        let sink = telemetry.trace();
        let nodes: [Arc<str>; 3] = ["peer0.org1", "peer0.org2", "orderer"].map(Arc::from);
        let total = 4 * TraceSink::CAPACITY;
        for i in 0..total {
            let mut span = telemetry.span("peer.endorse");
            span.node(&nodes[i % 3]);
            span.field("chaincode", &Arc::<str>::from(format!("cc{i}")));
            span.field("function", Box::<str>::from(format!("fn{i}")));
            span.field("result", "ok");
            drop(span);
            let store = sink.store.lock();
            assert!(
                store.out_of_line.len() <= 2 * store.records.len(),
                "span {i}: {} out-of-line values for {} records",
                store.out_of_line.len(),
                store.records.len()
            );
        }
        assert_eq!(sink.len(), TraceSink::CAPACITY);
        assert_eq!(sink.evicted(), (total - TraceSink::CAPACITY) as u64);
        {
            let store = sink.store.lock();
            assert_eq!(
                store.vocabulary.literals.entries,
                ["peer.endorse", "chaincode", "function", "result", "ok"]
            );
            assert_eq!(store.vocabulary.nodes.entries, nodes);
            assert_eq!(store.out_of_line.len(), 2 * TraceSink::CAPACITY);
        }
        let last = sink.records().pop().expect("a retained record");
        assert_eq!(
            last.fields,
            [
                (
                    "chaincode",
                    FieldValue::Shared(format!("cc{}", total - 1).into())
                ),
                (
                    "function",
                    FieldValue::Owned(format!("fn{}", total - 1).into())
                ),
                ("result", FieldValue::Static("ok")),
            ]
            .into()
        );
    }

    /// Once a table holds 65 535 strings, a new name, node, key or literal
    /// value is kept out of line and still resolves.
    #[test]
    fn strings_past_full_tables_stay_out_of_line() {
        let sink = sink(2);
        for i in 0..usize::from(OUT_OF_LINE_ID) {
            sink.push(SpanRecord {
                name: Box::leak(format!("name{i}").into_boxed_str()),
                node: Arc::from(format!("node{i}")),
                ..span(0)
            });
        }
        let seen = SpanRecord {
            name: "name7",
            fields: [("name8", FieldValue::Static("name9"))].into(),
            node: Arc::from("node7"),
            ..span(1)
        };
        sink.push(seen.clone());
        assert!(sink.store.lock().out_of_line.is_empty(), "seen strings");
        let fresh = SpanRecord {
            name: "fresh",
            fields: [
                ("name8", FieldValue::Static("new value")),
                ("key", FieldValue::Static("name9")),
                ("n", FieldValue::U64(1)),
            ]
            .into(),
            node: Arc::from("new node"),
            ..span(2)
        };
        sink.push(fresh.clone());
        assert_eq!(sink.records(), [seen, fresh]);
        let store = sink.store.lock();
        assert_eq!(store.vocabulary.literals.entries.len(), 65_535);
        assert_eq!(store.vocabulary.nodes.entries.len(), 65_535);
        // Name, node, the value of the first field, and two extra fields.
        assert_eq!(store.out_of_line.len(), 1 + 1 + 1 + 2 * 2);
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
