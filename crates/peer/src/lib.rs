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

mod channel;
mod commit;
mod endorse;
mod node;
mod sched;
mod telemetry;

pub use channel::{ChannelPolicies, CommitLane, ShardedScheduler};
pub use commit::{BlockCommitOutcome, CommitError, PvtDataProvider};
pub use endorse::EndorseError;
pub use node::{InstalledChaincode, Peer};

/// Hardware threads available to this process, resolved on first use and
/// fixed for the process's life. Every "is fanning out worth it" decision
/// on the commit path reads this instead of asking the OS again: the
/// query is a syscall costing tens of microseconds, more than a small
/// block's whole validation.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    })
}
