//! Observability for the Fabric PDC model: tracing spans, a metrics
//! registry, and a typed security-audit event stream.
//!
//! One [`Telemetry`] handle bundles the three surfaces and is shared
//! (cheap `Arc` clone) by every node in a network — attach it with
//! `NetworkBuilder::with_telemetry` and all peers and the orderer report
//! into the same registry:
//!
//! * **Spans** ([`Telemetry::span`]) time pipeline stages with monotonic
//!   clocks and land in the pipeline's bounded in-memory [`TraceSink`].
//!   Spans are flat: none has a parent.
//! * **Metrics** ([`Telemetry::metrics`]) are counters, gauges, and
//!   fixed-bucket histograms with a Prometheus-text exporter.
//! * **Audit events** ([`Telemetry::emit`]) are typed records of the
//!   paper's attack signals — see [`AuditEvent`] for the mapping onto
//!   Use Cases 1–3 and the New Features.
//!
//! On top of the span stream sit the per-request tools: every node
//! re-derives a transaction's [`trace_id`] from its tx id, so the spans
//! of one transaction share one key; a [`TxTimeline`] collects them by
//! that key into the five phase latencies (endorse / order / replicate /
//! validate / commit), and [`render_chrome_trace`] exports any span set
//! for Perfetto / `chrome://tracing`. An alert's evidence event names a
//! transaction, so its timeline is one [`TxTimeline::collect`] over the
//! sink away.
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
mod span;
mod timeline;
mod trace;

pub use audit::{AuditEvent, AuditLog};
pub use export::render_chrome_trace;
pub use metrics::{
    json_str, Counter, Gauge, Histogram, MetricSample, MetricValue, MetricsRegistry,
    DURATION_SECONDS_BUCKETS,
};
pub use span::{FieldValue, Fields, SpanRecord, TraceSink};
pub use timeline::{TxTimeline, PHASES};
pub use trace::trace_id;

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A shared handle to one telemetry pipeline: metrics registry, span
/// sink, and audit log. Clones share state.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

struct Inner {
    metrics: MetricsRegistry,
    audit: AuditLog,
    sink: TraceSink,
    epoch: Instant,
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
                epoch: Instant::now(),
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

    /// True when `other` is a clone of this handle (same registry, audit
    /// log, and sink). Lets wiring code detect two *different*
    /// pipelines being attached to one network by mistake.
    pub fn same_pipeline(&self, other: &Telemetry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Opens a span; it records to the sink when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            telemetry: self.clone(),
            trace_id: 0,
            node: None,
            name,
            fields: Fields::default(),
            start: Instant::now(),
        }
    }

    /// Emits an audit event: appended to the [`AuditLog`] and counted in
    /// `fabric_audit_events_total`.
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
        self.inner.audit.record(event);
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
/// Recording takes the sink's lock once and writes one 64-byte record
/// (see [`TraceSink`]). Once the sink has seen the span's name, node and
/// literals, it allocates nothing but a [`FieldValue::Owned`] field.
#[derive(Debug)]
pub struct SpanGuard {
    telemetry: Telemetry,
    trace_id: u64,
    /// `None` until [`SpanGuard::node`] names one: unattributed.
    node: Option<Arc<str>>,
    name: &'static str,
    fields: Fields,
    start: Instant,
}

impl SpanGuard {
    /// Keys the span to a transaction's trace: `trace_id` is the
    /// transaction's [`trace_id`], the same on every node.
    pub fn trace(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }

    /// Attributes the span to a named node (peer/orderer/client). The
    /// name is shared, not copied: callers hold it for the node's life.
    pub fn node(&mut self, node: &Arc<str>) {
        self.node = Some(node.clone());
    }

    /// Attaches a key-value field to the span.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.fields.push(key, value.into());
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
            name: self.name,
            fields: std::mem::take(&mut self.fields),
            start: self
                .start
                .saturating_duration_since(self.telemetry.inner.epoch),
            duration: self.start.elapsed(),
            trace_id: self.trace_id,
            node: self.node.take().unwrap_or_else(span::unattributed),
        };
        self.telemetry.inner.sink.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::TxId;

    /// Spans on different nodes share no parent, only the trace id every
    /// node derives from the transaction id.
    #[test]
    fn trace_context_threads_through_spans() {
        let t = Telemetry::new();
        let trace = trace_id("tx-42");
        for (name, node) in [("upstream", "client0.org1"), ("downstream", "peer0.org1")] {
            let mut span = t.span(name);
            span.trace(trace_id("tx-42"));
            span.node(&Arc::from(node));
            span.field("n", 3u64);
        }
        t.span("untraced").finish();
        let records = t.trace().records();
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["upstream", "downstream", "untraced"]);
        assert!(records[..2].iter().all(|r| r.trace_id == trace));
        assert_eq!(records[2].trace_id, 0, "a span without a trace is untraced");
        assert_eq!(&*records[1].node, "peer0.org1");
        assert!(
            records[2].node.is_empty(),
            "a span without a node is unattributed"
        );
        assert_eq!(records[0].fields, [("n", FieldValue::U64(3))].into());
        assert!(records[0].start <= records[1].start);
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
