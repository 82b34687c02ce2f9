//! Peer node logic: endorsement (execution phase) and validation/commit
//! (validation phase), including the paper's proposed defenses.
//!
//! A peer (paper §II-A1):
//!
//! * hosts the ledger (world state + block store) for its channel;
//! * **endorses** transaction proposals by simulating chaincode against its
//!   world-state snapshot and signing the proposal response
//!   ([`Peer::endorse`]);
//! * **validates and commits** ordered blocks through the proof-of-policy
//!   checks — endorsement policy and MVCC version conflict —
//!   ([`Peer::process_block`]).
//!
//! The validation pipeline reproduces the misuse the paper identifies:
//! with [`DefenseConfig::original`](fabric_types::DefenseConfig::original),
//! PDC read-only transactions are validated against the *chaincode-level*
//! policy (Use Case 2) and endorsements from PDC non-members are accepted
//! (Use Case 1). Enabling the defenses changes exactly the code paths the
//! paper's modified Fabric changes.

mod commit;
mod endorse;
mod node;
mod telemetry;

pub use commit::{BlockCommitOutcome, CommitError, PvtDataProvider};
pub use endorse::EndorseError;
pub use node::{InstalledChaincode, Peer};
