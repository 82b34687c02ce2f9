//! Per-transaction lifecycle timelines assembled from cross-node spans.
//!
//! [`TxTimeline::collect`] filters a span set down to one transaction's
//! spans (those carrying its [`crate::trace_id`]) and derives the five
//! lifecycle phase latencies:
//!
//! | phase       | span name       | emitted by                           |
//! |-------------|-----------------|--------------------------------------|
//! | `endorse`   | `peer.endorse`  | each endorsing peer                  |
//! | `order`     | `orderer.order` | ordering service (queue → batch)     |
//! | `replicate` | `raft.replicate`| raft (propose → quorum commit)       |
//! | `validate`  | `peer.validate` | each committing peer (checks → code) |
//! | `commit`    | `peer.commit`   | each committing peer (apply, audit)  |
//!
//! A phase that several nodes perform concurrently (endorse, validate,
//! commit) reports the slowest node — the latency the transaction
//! actually paid.

use crate::span::SpanRecord;
use crate::trace::trace_id;
use std::fmt::Write as _;
use std::time::Duration;

/// The five lifecycle phases, in causal order.
pub const PHASES: [&str; 5] = ["endorse", "order", "replicate", "validate", "commit"];

/// Span name from which each phase latency derives, indexed like
/// [`PHASES`].
const PHASE_SPANS: [&str; 5] = [
    "peer.endorse",
    "orderer.order",
    "raft.replicate",
    "peer.validate",
    "peer.commit",
];

/// One transaction's cross-node lifecycle: every span carrying its trace
/// id, plus the derived phase latencies.
#[derive(Debug, Clone)]
pub struct TxTimeline {
    /// Trace id shared by all collected spans.
    pub trace_id: u64,
    /// The transaction id the trace id was derived from.
    pub tx_id: String,
    /// All spans of the trace, sorted by start offset.
    pub spans: Vec<SpanRecord>,
}

impl TxTimeline {
    /// Collects the timeline of `tx_id` out of `records` (normally
    /// `telemetry.trace().records()`).
    pub fn collect(records: &[SpanRecord], tx_id: &str) -> TxTimeline {
        let trace_id = trace_id(tx_id);
        let mut spans: Vec<SpanRecord> = records
            .iter()
            .filter(|r| r.trace_id == trace_id)
            .cloned()
            .collect();
        spans.sort_by_key(|r| r.start);
        TxTimeline {
            trace_id,
            tx_id: tx_id.to_string(),
            spans,
        }
    }

    /// Latency of one phase (a [`PHASES`] name), or `None` when no span
    /// of that phase was collected. Phases performed by several nodes
    /// report the slowest node.
    pub fn phase(&self, phase: &str) -> Option<Duration> {
        let idx = PHASES.iter().position(|p| *p == phase)?;
        self.spans
            .iter()
            .filter(|s| s.name == PHASE_SPANS[idx])
            .map(|s| s.duration)
            .max()
    }

    /// All five phases in causal order with their latencies.
    pub fn phases(&self) -> [(&'static str, Option<Duration>); 5] {
        let mut out = [("", None); 5];
        for (i, phase) in PHASES.iter().enumerate() {
            out[i] = (*phase, self.phase(phase));
        }
        out
    }

    /// True when every one of the five phases has at least one span.
    pub fn complete(&self) -> bool {
        PHASES.iter().all(|p| self.phase(p).is_some())
    }

    /// Distinct emitting nodes, in first-span order.
    pub fn nodes(&self) -> Vec<&str> {
        let mut nodes = Vec::new();
        for span in &self.spans {
            if !span.node.is_empty() && !nodes.contains(&&*span.node) {
                nodes.push(&*span.node);
            }
        }
        nodes
    }

    /// Renders the timeline: phase table first, then every span with its
    /// node, in start order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "tx {} (trace {:#018x})", self.tx_id, self.trace_id);
        for (phase, latency) in self.phases() {
            match latency {
                Some(d) => {
                    let _ = writeln!(out, "  phase={phase} {:.3}ms", d.as_secs_f64() * 1e3);
                }
                None => {
                    let _ = writeln!(out, "  phase={phase} (missing)");
                }
            }
        }
        for span in &self.spans {
            let _ = writeln!(out, "  span {span}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        node: &str,
        trace_id: u64,
        start_ms: u64,
        dur_ms: u64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            fields: Default::default(),
            start: Duration::from_millis(start_ms),
            duration: Duration::from_millis(dur_ms),
            trace_id,
            node: node.into(),
        }
    }

    fn full_trace(trace_id: u64) -> Vec<SpanRecord> {
        vec![
            span("peer.endorse", "peer0.org1", trace_id, 1, 3),
            span("peer.endorse", "peer0.org2", trace_id, 1, 5),
            span("orderer.order", "orderer", trace_id, 6, 10),
            span("raft.replicate", "raft0", trace_id, 16, 4),
            span("peer.validate", "peer0.org1", trace_id, 20, 2),
            span("peer.commit", "peer0.org1", trace_id, 22, 1),
        ]
    }

    #[test]
    fn collects_only_matching_trace_and_derives_phases() {
        let tid = trace_id("tx-a");
        let mut records = full_trace(tid);
        records.push(span("peer.endorse", "peer0.org1", 999, 0, 50));
        let tl = TxTimeline::collect(&records, "tx-a");
        assert_eq!(tl.spans.len(), 6);
        assert!(tl.complete());
        // endorse takes the slowest endorser.
        assert_eq!(tl.phase("endorse"), Some(Duration::from_millis(5)));
        assert_eq!(tl.phase("order"), Some(Duration::from_millis(10)));
        assert_eq!(
            tl.nodes(),
            vec!["peer0.org1", "peer0.org2", "orderer", "raft0"]
        );
        let rendered = tl.render();
        for phase in PHASES {
            assert!(rendered.contains(&format!("phase={phase}")), "{rendered}");
        }
    }

    #[test]
    fn incomplete_timeline_reports_missing_phase() {
        let tid = trace_id("tx-b");
        let records = vec![span("peer.endorse", "p", tid, 0, 1)];
        let tl = TxTimeline::collect(&records, "tx-b");
        assert!(!tl.complete());
        assert_eq!(tl.phase("commit"), None);
        assert!(tl.render().contains("phase=commit (missing)"));
    }
}
