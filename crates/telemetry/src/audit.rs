//! Typed security-audit events for the PDC attack surface.
//!
//! Each [`AuditEvent`] variant maps onto a signal from the paper ("On
//! Private Data Collection of Hyperledger Fabric", ICDCS 2021):
//!
//! * [`AuditEvent::EndorsementByNonMember`] — Use Case 1: a transaction
//!   carries an endorsement from an org that is not a member of a
//!   private data collection it touches (the fake-PDC injection tell).
//! * [`AuditEvent::PolicyFallbackToChaincodeLevel`] — Use Case 2: a
//!   collection was validated against the chaincode-level policy because
//!   no collection-level endorsement policy is configured.
//! * [`AuditEvent::PlaintextPayloadInTx`] — Use Case 3: a committed
//!   transaction that touches a collection carries a plaintext response
//!   payload, leaking private data onto the public ledger.
//! * [`AuditEvent::MvccConflict`] / [`AuditEvent::SbeReCheck`] —
//!   validation visibility: version conflicts, and policy checks against
//!   a state-based-endorsement parameter rewritten earlier in the block.
//! * [`AuditEvent::DefenseRejected`] — the paper's New Features in
//!   action: a transaction rejected by a supplemental defense.
//!
//! A committing peer records each transaction's events as it validates
//! the block, so every run of one block emits the same sequence in
//! **block order** (asserted by `tests/pipeline_equivalence.rs`).

use fabric_types::{ChaincodeId, CollectionName, OrgId, TxId, TxValidationCode};
use parking_lot::Mutex;
use std::fmt;

/// A security-relevant event observed during endorsement or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// An endorsement on a collection-touching transaction came from an
    /// org outside the collection's membership (Use Case 1).
    EndorsementByNonMember {
        /// Transaction carrying the endorsement.
        tx_id: TxId,
        /// Collection whose membership the endorser is outside of.
        collection: CollectionName,
        /// The non-member endorsing org.
        endorser_org: OrgId,
    },
    /// A touched collection has no collection-level endorsement policy,
    /// so validation fell back to the chaincode-level policy (Use Case 2).
    PolicyFallbackToChaincodeLevel {
        /// Transaction being validated.
        tx_id: TxId,
        /// Chaincode whose policy was used as the fallback.
        chaincode: ChaincodeId,
        /// Collection lacking its own policy.
        collection: CollectionName,
    },
    /// A collection-touching transaction committed with a plaintext
    /// response payload (Use Case 3).
    PlaintextPayloadInTx {
        /// Transaction with the plaintext payload.
        tx_id: TxId,
        /// Chaincode that produced the payload.
        chaincode: ChaincodeId,
        /// Size of the leaked payload in bytes.
        payload_bytes: usize,
    },
    /// A transaction was invalidated by an MVCC read-version conflict.
    MvccConflict {
        /// Conflicting transaction.
        tx_id: TxId,
        /// Chaincode whose read set conflicted.
        chaincode: ChaincodeId,
    },
    /// A transaction reached the policy check and touches a key whose
    /// state-based-endorsement parameter an earlier valid transaction of
    /// the same block rewrote, so the in-block parameter governed it.
    SbeReCheck {
        /// Checked transaction.
        tx_id: TxId,
        /// Chaincode owning the rewritten key-level policy parameter.
        chaincode: ChaincodeId,
        /// The transaction's validation code.
        outcome: TxValidationCode,
    },
    /// A supplemental defense (the paper's New Features) rejected the
    /// transaction.
    DefenseRejected {
        /// Rejected transaction.
        tx_id: TxId,
        /// The rejection code the defense produced.
        code: TxValidationCode,
    },
}

impl AuditEvent {
    /// The variant's stable kind label (used as a metric label value).
    pub fn kind(&self) -> &'static str {
        match self {
            AuditEvent::EndorsementByNonMember { .. } => "endorsement_by_non_member",
            AuditEvent::PolicyFallbackToChaincodeLevel { .. } => {
                "policy_fallback_to_chaincode_level"
            }
            AuditEvent::PlaintextPayloadInTx { .. } => "plaintext_payload_in_tx",
            AuditEvent::MvccConflict { .. } => "mvcc_conflict",
            AuditEvent::SbeReCheck { .. } => "sbe_re_check",
            AuditEvent::DefenseRejected { .. } => "defense_rejected",
        }
    }

    /// Transaction the event is about.
    pub fn tx_id(&self) -> &TxId {
        match self {
            AuditEvent::EndorsementByNonMember { tx_id, .. }
            | AuditEvent::PolicyFallbackToChaincodeLevel { tx_id, .. }
            | AuditEvent::PlaintextPayloadInTx { tx_id, .. }
            | AuditEvent::MvccConflict { tx_id, .. }
            | AuditEvent::SbeReCheck { tx_id, .. }
            | AuditEvent::DefenseRejected { tx_id, .. } => tx_id,
        }
    }
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvent::EndorsementByNonMember {
                tx_id,
                collection,
                endorser_org,
            } => write!(
                f,
                "{}: tx {tx_id} endorsed by {endorser_org}, not a member of {collection}",
                self.kind()
            ),
            AuditEvent::PolicyFallbackToChaincodeLevel {
                tx_id,
                chaincode,
                collection,
            } => write!(
                f,
                "{}: tx {tx_id} collection {collection} validated under {chaincode}'s chaincode-level policy",
                self.kind()
            ),
            AuditEvent::PlaintextPayloadInTx {
                tx_id,
                chaincode,
                payload_bytes,
            } => write!(
                f,
                "{}: tx {tx_id} ({chaincode}) committed {payload_bytes} plaintext payload bytes",
                self.kind()
            ),
            AuditEvent::MvccConflict { tx_id, chaincode } => {
                write!(f, "{}: tx {tx_id} ({chaincode})", self.kind())
            }
            AuditEvent::SbeReCheck {
                tx_id,
                chaincode,
                outcome,
            } => write!(
                f,
                "{}: tx {tx_id} ({chaincode}) re-checked, outcome {outcome}",
                self.kind()
            ),
            AuditEvent::DefenseRejected { tx_id, code } => {
                write!(f, "{}: tx {tx_id} rejected with {code}", self.kind())
            }
        }
    }
}

/// Thread-safe, append-only log of emitted [`AuditEvent`]s.
#[derive(Debug, Default)]
pub struct AuditLog {
    events: Mutex<Vec<AuditEvent>>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&self, event: AuditEvent) {
        self.events.lock().push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Clones out all events in emission order.
    pub fn events(&self) -> Vec<AuditEvent> {
        self.events.lock().clone()
    }

    /// Clones out events recorded at index `from` onward — for diffing
    /// "what fired during this operation".
    pub fn events_since(&self, from: usize) -> Vec<AuditEvent> {
        let events = self.events.lock();
        events.get(from..).unwrap_or(&[]).to_vec()
    }
}
