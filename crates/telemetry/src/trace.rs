//! Cross-node trace-context propagation.
//!
//! A [`TraceContext`] ties spans emitted on different nodes into one
//! causal tree per transaction. Trace ids are derived deterministically
//! from the transaction id (`fabric_wire::IdHasher`, the identifier
//! hasher of DESIGN.md §10), so every hop that knows the tx id —
//! endorser, orderer, raft follower, committing peer — can re-derive the
//! same trace id without any wire-format change and without a `rand`
//! dependency.

use fabric_wire::IdHasher;
use std::hash::Hasher;

/// Identifies the trace a span belongs to and the span it is causally
/// parented under.
///
/// A zero `trace_id` means "not traced"; [`TraceContext::default`]
/// produces that inactive context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Deterministic trace id (hash of the tx id); 0 = inactive.
    pub trace_id: u64,
    /// Span id of the causal parent on the emitting side; 0 = no remote
    /// parent (the span is a root of its node-local subtree).
    pub parent_span: u64,
}

impl TraceContext {
    /// Derives the trace context for a transaction id.
    ///
    /// Deterministic across nodes and runs: [`IdHasher`] over the id
    /// bytes, eight at a time, nudged away from zero so the context is
    /// always active.
    pub fn for_tx(tx_id: &str) -> Self {
        let mut hasher = IdHasher::default();
        hasher.write(tx_id.as_bytes());
        TraceContext {
            trace_id: hasher.finish().max(1),
            parent_span: 0,
        }
    }

    /// Returns this context re-parented under `span_id` (for handing to a
    /// downstream hop whose spans should nest under `span_id`).
    pub fn with_parent(mut self, span_id: u64) -> Self {
        self.parent_span = span_id;
        self
    }

    /// True when the context carries a real trace id.
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_active() {
        let a = TraceContext::for_tx("tx-abc");
        let b = TraceContext::for_tx("tx-abc");
        assert_eq!(a, b);
        assert!(a.is_active());
        assert_ne!(a.trace_id, TraceContext::for_tx("tx-abd").trace_id);
    }

    #[test]
    fn default_is_inactive_and_with_parent_sets_parent() {
        let ctx = TraceContext::default();
        assert!(!ctx.is_active());
        let child = TraceContext::for_tx("t").with_parent(7);
        assert_eq!(child.parent_span, 7);
        assert_eq!(child.trace_id, TraceContext::for_tx("t").trace_id);
    }

    #[test]
    fn the_empty_id_hashes_to_zero_and_is_nudged_to_one() {
        assert_eq!(TraceContext::for_tx("").trace_id, 1);
    }

    /// Trace ids of distinct transactions must not merge two timelines:
    /// no collision over sequential names or over hex ids shaped like
    /// `Proposal::derive_tx_id`'s.
    #[test]
    fn no_collisions_over_sequential_and_hex_ids() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..100_000u64 {
            let id = format!("tx-{n}");
            let ctx = TraceContext::for_tx(&id);
            assert!(ctx.is_active());
            assert!(seen.insert(ctx.trace_id), "{id} collides");
        }
        for n in 0..10_000u64 {
            let mut state = n.wrapping_mul(0xd6e8_feb8_6659_fd93) | 1;
            let id: String = (0..4)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    format!("{state:016x}")
                })
                .collect();
            assert_eq!(id.len(), 64);
            assert!(
                seen.insert(TraceContext::for_tx(&id).trace_id),
                "{id} collides"
            );
        }
    }
}
