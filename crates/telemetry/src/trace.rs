//! Trace ids: the one key that ties spans on different nodes together.
//!
//! Spans are flat — none has a parent — and every span of one
//! transaction carries the same trace id. The id is derived
//! deterministically from the transaction id (`fabric_wire::IdHasher`,
//! the identifier hasher of DESIGN.md §10), so every hop that knows the
//! tx id — endorser, orderer, raft follower, committing peer — re-derives
//! it without any wire-format change and without a `rand` dependency.

use fabric_wire::IdHasher;
use std::hash::Hasher;

/// The trace id of a transaction: [`IdHasher`] over the id bytes, eight
/// at a time, nudged away from zero, which marks an untraced span.
/// Deterministic across nodes and runs.
pub fn trace_id(tx_id: &str) -> u64 {
    let mut hasher = IdHasher::default();
    hasher.write(tx_id.as_bytes());
    hasher.finish().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_active() {
        let a = trace_id("tx-abc");
        assert_eq!(a, trace_id("tx-abc"));
        assert_ne!(a, 0, "zero marks an untraced span");
        assert_ne!(a, trace_id("tx-abd"));
    }

    #[test]
    fn the_empty_id_hashes_to_zero_and_is_nudged_to_one() {
        assert_eq!(trace_id(""), 1);
    }

    /// Trace ids of distinct transactions must not merge two timelines:
    /// no collision over sequential names or over hex ids shaped like
    /// `Proposal::derive_tx_id`'s.
    #[test]
    fn no_collisions_over_sequential_and_hex_ids() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..100_000u64 {
            let id = format!("tx-{n}");
            let trace = trace_id(&id);
            assert_ne!(trace, 0);
            assert!(seen.insert(trace), "{id} collides");
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
            assert!(seen.insert(trace_id(&id)), "{id} collides");
        }
    }
}
