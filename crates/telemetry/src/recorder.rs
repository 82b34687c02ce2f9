//! Flight recorder: a bounded ring of recent spans and audit events,
//! snapshotted automatically when an attack signal fires.
//!
//! The [`FlightRecorder`] wraps another [`Collector`] (normally the
//! in-memory [`crate::TraceSink`]) and mirrors everything that flows
//! through it into a fixed-capacity ring buffer. When one of the paper's
//! attack signals is emitted — [`AuditEvent::DefenseRejected`],
//! [`AuditEvent::EndorsementByNonMember`], or
//! [`AuditEvent::MvccConflict`] — the ring is snapshotted into a
//! [`FlightDump`]: "what happened in the moments before this fired",
//! without retaining an unbounded history.
//!
//! Writes are wait-free on the ring index (one `fetch_add`) plus one
//! uncontended per-slot lock, so the recorder is safe to leave attached
//! on validation hot paths.

use crate::audit::AuditEvent;
use crate::span::{Collector, SpanRecord};
use fabric_types::TxId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One entry in the flight-recorder ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEntry {
    /// A finished span.
    Span(SpanRecord),
    /// An emitted audit event.
    Audit(AuditEvent),
}

/// A snapshot of the ring taken when a trigger event fired.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// The audit event that triggered the dump (also the newest ring
    /// entry at snapshot time).
    pub trigger: AuditEvent,
    /// Ring contents, oldest first.
    pub entries: Vec<FlightEntry>,
}

impl FlightDump {
    /// The dump's audit events as `(kind, tx_id)` pairs, oldest first.
    ///
    /// Span timings differ run to run, but audit events are emitted in
    /// block order as each peer validates — this signature is
    /// deterministic and lets tests compare dumps across runs.
    pub fn audit_signature(&self) -> Vec<(&'static str, TxId)> {
        self.entries
            .iter()
            .filter_map(|e| match e {
                FlightEntry::Audit(ev) => Some((ev.kind(), ev.tx_id().clone())),
                FlightEntry::Span(_) => None,
            })
            .collect()
    }
}

/// Bounded ring buffer of recent [`FlightEntry`]s with automatic dumps
/// on attack signals. Create via [`crate::Telemetry::with_flight_recorder`]
/// or wrap any collector with [`FlightRecorder::new`].
pub struct FlightRecorder {
    inner: Arc<dyn Collector>,
    ring: Box<[Mutex<Option<FlightEntry>>]>,
    /// Next write position (monotonic; slot = head % capacity).
    head: AtomicUsize,
    dumps: Mutex<Vec<FlightDump>>,
    /// Bitmask of trigger kinds that already dumped since the last
    /// [`Collector::block_boundary`]: a block with a hundred MVCC aborts
    /// produces one MVCC dump, not a hundred near-identical snapshots.
    dumped_kinds: AtomicUsize,
}

impl FlightRecorder {
    /// Wraps `inner`, keeping the most recent `capacity` entries
    /// (clamped to at least 1).
    pub fn new(capacity: usize, inner: Arc<dyn Collector>) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner,
            ring: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            dumps: Mutex::new(Vec::new()),
            dumped_kinds: AtomicUsize::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    fn push(&self, entry: FlightEntry) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.ring.len();
        *self.ring[slot].lock() = Some(entry);
    }

    /// Snapshots the ring, oldest entry first.
    pub fn recent(&self) -> Vec<FlightEntry> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.ring.len();
        let mut out = Vec::new();
        for i in 0..cap {
            // Slot (head + i) % cap holds the (cap - i)-th most recent
            // entry once the ring has wrapped; before wrapping the None
            // slots are simply skipped.
            if let Some(entry) = self.ring[(head + i) % cap].lock().clone() {
                out.push(entry);
            }
        }
        out
    }

    /// All dumps captured so far, in trigger order.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().clone()
    }

    /// Discards captured dumps (the ring itself keeps rolling).
    pub fn clear_dumps(&self) {
        self.dumps.lock().clear();
    }

    /// Snapshots the ring into a dump with `trigger` as the stated cause
    /// and records it alongside the automatic dumps.
    ///
    /// This is the hook for external watchers (the monitor's alert
    /// engine): when an alert fires, it captures the ring with the audit
    /// event that tripped the detector, so the alert carries the same
    /// forensic context an automatic dump would. Explicit captures
    /// bypass the per-block trigger dedup.
    pub fn capture(&self, trigger: AuditEvent) -> FlightDump {
        let dump = FlightDump {
            trigger,
            entries: self.recent(),
        };
        self.dumps.lock().push(dump.clone());
        dump
    }

    /// True when `event` is one of the paper's dump-triggering attack
    /// signals.
    fn is_trigger(event: &AuditEvent) -> bool {
        matches!(
            event,
            AuditEvent::DefenseRejected { .. }
                | AuditEvent::EndorsementByNonMember { .. }
                | AuditEvent::MvccConflict { .. }
        )
    }

    /// Per-kind bit in `dumped_kinds` for a trigger event.
    fn trigger_bit(event: &AuditEvent) -> usize {
        match event {
            AuditEvent::DefenseRejected { .. } => 1,
            AuditEvent::EndorsementByNonMember { .. } => 2,
            AuditEvent::MvccConflict { .. } => 4,
            _ => 0,
        }
    }
}

impl Collector for FlightRecorder {
    fn span_finished(&self, record: SpanRecord) {
        self.push(FlightEntry::Span(record.clone()));
        self.inner.span_finished(record);
    }

    fn audit_event(&self, event: &AuditEvent) {
        self.push(FlightEntry::Audit(event.clone()));
        if Self::is_trigger(event) {
            // One dump per trigger kind per block: the first conflict in
            // a storm captures the context, the rest would snapshot the
            // same ring again. The bit test is fetch_or, so even racing
            // emitters agree on a single winner.
            let bit = Self::trigger_bit(event);
            let seen = self.dumped_kinds.fetch_or(bit, Ordering::Relaxed);
            if seen & bit == 0 {
                let dump = FlightDump {
                    trigger: event.clone(),
                    entries: self.recent(),
                };
                self.dumps.lock().push(dump);
            }
        }
        self.inner.audit_event(event);
    }

    fn block_boundary(&self) {
        self.dumped_kinds.store(0, Ordering::Relaxed);
        self.inner.block_boundary();
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.ring.len())
            .field("written", &self.head.load(Ordering::Relaxed))
            .field("dumps", &self.dumps.lock().len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::ChaincodeId;
    use std::time::Duration;

    /// A downstream collector that discards everything, so each test sees
    /// only the ring.
    struct NoopCollector;

    impl Collector for NoopCollector {
        fn span_finished(&self, _record: SpanRecord) {}
    }

    fn span(id: u64, name: &'static str) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            name,
            fields: Default::default(),
            start: Duration::from_millis(id),
            duration: Duration::from_millis(1),
            trace_id: 0,
            node: "".into(),
        }
    }

    fn conflict(n: u64) -> AuditEvent {
        AuditEvent::MvccConflict {
            tx_id: TxId::new(format!("tx{n}")),
            chaincode: ChaincodeId::new("cc"),
        }
    }

    #[test]
    fn ring_keeps_most_recent_entries_in_order() {
        let rec = FlightRecorder::new(3, Arc::new(NoopCollector));
        for i in 1..=5 {
            rec.span_finished(span(i, "s"));
        }
        let names: Vec<u64> = rec
            .recent()
            .iter()
            .map(|e| match e {
                FlightEntry::Span(s) => s.id,
                FlightEntry::Audit(_) => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec![3, 4, 5]);
    }

    #[test]
    fn trigger_event_captures_dump_including_itself() {
        let rec = FlightRecorder::new(8, Arc::new(NoopCollector));
        rec.span_finished(span(1, "before"));
        rec.audit_event(&conflict(7));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trigger, conflict(7));
        assert_eq!(
            dumps[0].audit_signature(),
            vec![("mvcc_conflict", TxId::new("tx7"))]
        );
        assert!(matches!(dumps[0].entries[0], FlightEntry::Span(_)));
        rec.clear_dumps();
        assert!(rec.dumps().is_empty());
    }

    #[test]
    fn dump_on_full_ring_retains_the_triggering_event() {
        // A ring that has already wrapped must still include the trigger
        // itself in the snapshot (it is the newest entry, and the push
        // evicting the oldest slot happens before the snapshot).
        let rec = FlightRecorder::new(2, Arc::new(NoopCollector));
        for i in 1..=5 {
            rec.span_finished(span(i, "s"));
        }
        rec.audit_event(&conflict(9));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trigger, conflict(9));
        assert_eq!(
            dumps[0].audit_signature(),
            vec![("mvcc_conflict", TxId::new("tx9"))],
            "the trigger survives in the snapshot even on a full ring"
        );
        assert_eq!(
            dumps[0].entries.last(),
            Some(&FlightEntry::Audit(conflict(9))),
            "trigger is the newest snapshot entry"
        );
    }

    #[test]
    fn capacity_one_ring_dump_is_exactly_the_trigger() {
        let rec = FlightRecorder::new(1, Arc::new(NoopCollector));
        rec.span_finished(span(1, "evicted"));
        rec.audit_event(&conflict(3));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].entries, vec![FlightEntry::Audit(conflict(3))]);
    }

    #[test]
    fn repeated_triggers_within_one_block_dedup_to_one_dump() {
        let rec = FlightRecorder::new(8, Arc::new(NoopCollector));
        rec.audit_event(&conflict(1));
        rec.audit_event(&conflict(2));
        rec.audit_event(&conflict(3));
        assert_eq!(
            rec.dumps().len(),
            1,
            "an abort storm inside one block captures context once"
        );
        // A different trigger kind in the same block still dumps: its
        // snapshot carries evidence the earlier one could not (events
        // emitted after the first trigger).
        rec.audit_event(&AuditEvent::DefenseRejected {
            tx_id: TxId::new("txd"),
            code: fabric_types::TxValidationCode::BadPayload,
        });
        assert_eq!(rec.dumps().len(), 2);
        // The next block boundary re-arms every kind.
        rec.block_boundary();
        rec.audit_event(&conflict(4));
        assert_eq!(rec.dumps().len(), 3);
        assert_eq!(rec.dumps()[2].trigger, conflict(4));
    }

    #[test]
    fn explicit_capture_records_a_dump_and_bypasses_dedup() {
        let rec = FlightRecorder::new(8, Arc::new(NoopCollector));
        rec.audit_event(&conflict(1));
        assert_eq!(rec.dumps().len(), 1);
        let dump = rec.capture(conflict(1));
        assert_eq!(dump.trigger, conflict(1));
        assert_eq!(
            dump.audit_signature(),
            vec![("mvcc_conflict", TxId::new("tx1"))]
        );
        assert_eq!(
            rec.dumps().len(),
            2,
            "capture is recorded alongside auto dumps"
        );
    }

    #[test]
    fn non_trigger_events_do_not_dump() {
        let rec = FlightRecorder::new(4, Arc::new(NoopCollector));
        rec.audit_event(&AuditEvent::PlaintextPayloadInTx {
            tx_id: TxId::new("txp"),
            chaincode: ChaincodeId::new("cc"),
            payload_bytes: 9,
        });
        assert!(rec.dumps().is_empty());
        assert_eq!(rec.recent().len(), 1);
    }
}
