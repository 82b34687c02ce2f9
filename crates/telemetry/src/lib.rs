//! Observability for the Fabric PDC model: tracing spans, a metrics
//! registry, and a typed security-audit event stream.
//!
//! One [`Telemetry`] handle bundles the three surfaces and is shared
//! (cheap `Arc` clone) by every node in a network — attach it with
//! `NetworkBuilder::with_telemetry` and all peers and the orderer report
//! into the same registry:
//!
//! * **Spans** ([`Telemetry::span`]) time pipeline stages with monotonic
//!   clocks and land in the pipeline's bounded in-memory [`TraceSink`],
//!   which renders a flamegraph-style tree.
//! * **Metrics** ([`Telemetry::metrics`]) are counters, gauges, and
//!   fixed-bucket histograms with a Prometheus-text exporter.
//! * **Audit events** ([`Telemetry::emit`]) are typed records of the
//!   paper's attack signals — see [`AuditEvent`] for the mapping onto
//!   Use Cases 1–3 and the New Features.
//!
//! On top of the span stream sit the per-request tools: a
//! [`TraceContext`] propagated across nodes keys every span of one
//! transaction into a single causal tree (deterministic trace ids derived
//! from tx ids), a [`TxTimeline`] assembles those spans into the five
//! derived phase latencies (endorse / order / replicate / validate /
//! commit), a [`FlightRecorder`] keeps a bounded ring of recent
//! spans+events and dumps it when an attack signal fires, and
//! [`render_chrome_trace`] exports any span set for Perfetto /
//! `chrome://tracing`.
//!
//! # Examples
//!
//! ```
//! use fabric_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! let requests = telemetry
//!     .metrics()
//!     .counter("requests_total", "Total requests", &[("kind", "demo")]);
//! {
//!     let mut span = telemetry.span("handle_request");
//!     span.field("kind", "demo");
//!     requests.inc();
//! } // span records on drop
//! assert_eq!(requests.get(), 1);
//! assert_eq!(telemetry.trace().len(), 1);
//! assert!(telemetry.metrics().render_prometheus().contains("requests_total"));
//! ```

mod audit;
mod export;
mod metrics;
mod recorder;
mod span;
mod timeline;
mod trace;

pub use audit::{AuditEvent, AuditLog};
pub use export::render_chrome_trace;
pub use metrics::{
    json_str, Counter, Gauge, Histogram, MetricSample, MetricValue, MetricsRegistry,
    DURATION_SECONDS_BUCKETS,
};
pub use recorder::{FlightDump, FlightEntry, FlightRecorder};
pub use span::{FieldValue, Fields, SpanRecord, TraceSink};
pub use timeline::{TxTimeline, PHASES, PHASE_SECONDS_BUCKETS};
pub use trace::TraceContext;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A shared handle to one telemetry pipeline: metrics registry, span
/// sink, audit log, and optionally a flight recorder. Clones share state.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

struct Inner {
    metrics: MetricsRegistry,
    audit: AuditLog,
    sink: TraceSink,
    /// Mirrors every span and audit event when the pipeline was built
    /// with [`Telemetry::with_flight_recorder`].
    recorder: Option<FlightRecorder>,
    epoch: Instant,
    next_span_id: AtomicU64,
    /// Per-kind `fabric_audit_events_total` handles, resolved once —
    /// [`Telemetry::emit`] sits on the sequential commit path.
    audit_counters: [OnceLock<Counter>; 6],
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Creates a telemetry pipeline collecting spans into an in-memory
    /// [`TraceSink`].
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Creates a telemetry pipeline that also mirrors its spans and audit
    /// events into a [`FlightRecorder`] ring of `capacity` recent
    /// entries. The recorder snapshots the ring automatically when one of
    /// the paper's attack signals fires — see [`FlightRecorder::dumps`].
    pub fn with_flight_recorder(capacity: usize) -> Self {
        Self::build(Some(FlightRecorder::new(capacity)))
    }

    fn build(recorder: Option<FlightRecorder>) -> Self {
        let metrics = MetricsRegistry::new();
        // Dashboards see when a sustained run outpaces trace consumption.
        let evicted = metrics.counter(
            "fabric_trace_spans_evicted_total",
            "Trace spans evicted to honor the sink's retention cap",
            &[],
        );
        Telemetry {
            inner: Arc::new(Inner {
                metrics,
                audit: AuditLog::new(),
                sink: TraceSink::new(TraceSink::CAPACITY, evicted),
                recorder,
                epoch: Instant::now(),
                next_span_id: AtomicU64::new(1),
                audit_counters: Default::default(),
            }),
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The shared audit-event log.
    pub fn audit(&self) -> &AuditLog {
        &self.inner.audit
    }

    /// The in-memory trace sink every span lands in.
    pub fn trace(&self) -> &TraceSink {
        &self.inner.sink
    }

    /// The flight recorder, when one was configured via
    /// [`Telemetry::with_flight_recorder`].
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.inner.recorder.as_ref()
    }

    /// True when `other` is a clone of this handle (same registry, audit
    /// log, and sink). Lets wiring code detect two *different*
    /// pipelines being attached to one network by mistake.
    pub fn same_pipeline(&self, other: &Telemetry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Marks a block boundary on the commit path: the flight recorder's
    /// per-block trigger dedup resets. Called by peers before validating
    /// each block.
    pub fn block_boundary(&self) {
        if let Some(recorder) = &self.inner.recorder {
            recorder.block_boundary();
        }
    }

    /// Opens a root span; it records to the sink when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.open_span(name, None)
    }

    /// Emits an audit event: appended to the [`AuditLog`], mirrored into
    /// the flight recorder, and counted in `fabric_audit_events_total`.
    pub fn emit(&self, event: AuditEvent) {
        self.inner.audit_counters[audit_kind_index(&event)]
            .get_or_init(|| {
                self.inner.metrics.counter(
                    "fabric_audit_events_total",
                    "Security-audit events by kind",
                    &[("kind", event.kind())],
                )
            })
            .inc();
        if let Some(recorder) = &self.inner.recorder {
            recorder.record_audit(&event);
        }
        self.inner.audit.record(event);
    }

    fn open_span(&self, name: &'static str, parent: Option<u64>) -> SpanGuard {
        SpanGuard {
            telemetry: self.clone(),
            id: self.inner.next_span_id.fetch_add(1, Ordering::Relaxed),
            parent,
            trace_id: 0,
            node: None,
            name,
            fields: Fields::default(),
            start: Instant::now(),
        }
    }
}

/// Maps an audit-event kind to its slot in `Inner::audit_counters`.
fn audit_kind_index(event: &AuditEvent) -> usize {
    match event {
        AuditEvent::EndorsementByNonMember { .. } => 0,
        AuditEvent::PolicyFallbackToChaincodeLevel { .. } => 1,
        AuditEvent::PlaintextPayloadInTx { .. } => 2,
        AuditEvent::MvccConflict { .. } => 3,
        AuditEvent::SbeReCheck { .. } => 4,
        AuditEvent::DefenseRejected { .. } => 5,
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans", &self.trace().len())
            .field("audit_events", &self.inner.audit.len())
            .finish_non_exhaustive()
    }
}

/// An open span; records a [`SpanRecord`] to the sink on drop.
///
/// Recording allocates nothing but a [`FieldValue::Owned`] field (and a
/// flight recorder's copy of the record): the name is a literal,
/// the node a shared string, and up to three fields sit inline.
#[derive(Debug)]
pub struct SpanGuard {
    telemetry: Telemetry,
    id: u64,
    parent: Option<u64>,
    trace_id: u64,
    /// `None` until [`SpanGuard::node`] names one: unattributed.
    node: Option<Arc<str>>,
    name: &'static str,
    fields: Fields,
    start: Instant,
}

impl SpanGuard {
    /// This span's id within its telemetry instance.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ties the span into a cross-node trace. When the span has no local
    /// parent, the context's remote parent span is adopted, nesting this
    /// node's subtree under the upstream hop.
    pub fn trace(&mut self, ctx: TraceContext) {
        if !ctx.is_active() {
            return;
        }
        self.trace_id = ctx.trace_id;
        if self.parent.is_none() && ctx.parent_span != 0 {
            self.parent = Some(ctx.parent_span);
        }
    }

    /// Attributes the span to a named node (peer/orderer/client). The
    /// name is shared, not copied: callers hold it for the node's life.
    pub fn node(&mut self, node: &Arc<str>) {
        self.node = Some(node.clone());
    }

    /// The context to hand to a downstream hop: same trace, parented at
    /// this span.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: self.id,
        }
    }

    /// Attaches a key-value field to the span.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.fields.push(key, value.into());
    }

    /// Opens a child span of this one (same trace id and node).
    pub fn child(&self, name: &'static str) -> SpanGuard {
        let mut child = self.telemetry.open_span(name, Some(self.id));
        child.trace_id = self.trace_id;
        child.node = self.node.clone();
        child
    }

    /// Time since the span was opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            fields: std::mem::take(&mut self.fields),
            start: self
                .start
                .saturating_duration_since(self.telemetry.inner.epoch),
            duration: self.start.elapsed(),
            trace_id: self.trace_id,
            node: self.node.take().unwrap_or_else(span::unattributed),
        };
        let inner = &self.telemetry.inner;
        if let Some(recorder) = &inner.recorder {
            recorder.record_span(&record);
        }
        inner.sink.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::TxId;

    #[test]
    fn spans_nest_and_record() {
        let t = Telemetry::new();
        {
            let mut root = t.span("root");
            root.field("n", 3u64);
            let child = root.child("child");
            child.finish();
        }
        let records = t.trace().records();
        assert_eq!(records.len(), 2);
        let child = records.iter().find(|r| r.name == "child").expect("child");
        let root = records.iter().find(|r| r.name == "root").expect("root");
        assert_eq!(child.parent, Some(root.id));
        assert!(root.duration >= child.duration);
        assert_eq!(root.fields, [("n", FieldValue::U64(3))].into());
    }

    #[test]
    fn trace_context_threads_through_spans() {
        let t = Telemetry::new();
        let ctx = TraceContext::for_tx("tx-42");
        {
            let mut remote_parent = t.span("upstream");
            remote_parent.trace(ctx);
            remote_parent.node(&Arc::from("client0.org1"));
            let downstream_ctx = remote_parent.context();
            // A span on "another node": no local parent, adopts the
            // remote one through the propagated context.
            let mut local_root = t.span("downstream");
            local_root.trace(downstream_ctx);
            local_root.node(&Arc::from("peer0.org1"));
            let child = local_root.child("downstream.child");
            assert_eq!(child.context().trace_id, ctx.trace_id);
            child.finish();
        }
        let records = t.trace().records();
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.trace_id == ctx.trace_id));
        let upstream = records.iter().find(|r| r.name == "upstream").unwrap();
        let downstream = records.iter().find(|r| r.name == "downstream").unwrap();
        let child = records
            .iter()
            .find(|r| r.name == "downstream.child")
            .unwrap();
        assert_eq!(downstream.parent, Some(upstream.id));
        assert_eq!(child.parent, Some(downstream.id));
        assert_eq!(&*child.node, "peer0.org1");
    }

    #[test]
    fn audit_counter_cache_matches_registry() {
        let t = Telemetry::new();
        for _ in 0..3 {
            t.emit(AuditEvent::DefenseRejected {
                tx_id: TxId::new("txd"),
                code: fabric_types::TxValidationCode::BadPayload,
            });
        }
        assert!(t
            .metrics()
            .render_prometheus()
            .contains("fabric_audit_events_total{kind=\"defense_rejected\"} 3"));
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new();
        let c = t.clone();
        t.metrics().counter("shared_total", "shared", &[]).inc();
        let view = c.metrics().counter("shared_total", "shared", &[]);
        assert_eq!(view.get(), 1);
    }
}
