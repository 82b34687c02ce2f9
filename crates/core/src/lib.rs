//! # fabric-pdc — On Private Data Collection of Hyperledger Fabric
//!
//! A from-scratch Rust reproduction of *"On Private Data Collection of
//! Hyperledger Fabric"* (Wang et al., ICDCS 2021): a Hyperledger
//! Fabric–faithful permissioned-blockchain simulator, the paper's fake PDC
//! results injection and PDC leakage attacks, the two proposed defenses,
//! and the static analyzer + corpus study of §V-C.
//!
//! This crate is the umbrella: it re-exports every subsystem crate and a
//! [`prelude`] with the types most programs need.
//!
//! ## Architecture
//!
//! | layer | crate | role |
//! |---|---|---|
//! | wire | [`wire`] | canonical binary encoding for hashing/signing |
//! | crypto | [`crypto`] | SHA-256 (FIPS 180-4), HMAC, simulated signatures |
//! | types | [`types`] | proposals, rwsets, transactions, blocks, collections |
//! | policy | [`policy`] | signature + implicitMeta endorsement policies |
//! | ledger | [`ledger`] | versioned world state, private stores, block store |
//! | raft | [`raft`] | consensus for the ordering service |
//! | gossip | [`gossip`] | private-data dissemination + transient stores |
//! | chaincode | [`chaincode`] | shim API, tx simulator, sample contracts |
//! | peer | [`peer`] | endorsement + validation/commit (and the defenses) |
//! | orderer | [`orderer`] | Raft-backed block cutting |
//! | client | [`client`] | proposal/transaction assembly SDK |
//! | network | [`network`] | in-process composition of everything above |
//! | attacks | [`attacks`] | §IV attacks and the §V-A/§V-B experiment labs |
//! | analyzer | [`analyzer`] | §V-C static analyzer + synthetic corpus |
//! | lint | [`lint`] | PDC misconfiguration rules and chaincode flow analysis ([`lint::flow`]) |
//! | telemetry | [`telemetry`] | tracing spans, metrics registry, security-audit events |
//! | monitor | [`monitor`] | streaming health scoring, rate anomaly detection, alerting |
//!
//! ## Quick start
//!
//! ```
//! use fabric_pdc::prelude::*;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 3-org channel with one peer and one client per org.
//! let mut net = NetworkBuilder::new("mychannel")
//!     .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
//!     .seed(1)
//!     .build();
//! net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
//!
//! let outcome = net.submit_transaction(
//!     "client0.org1",
//!     "assets",
//!     "CreateAsset",
//!     &["asset1", "blue", "alice", "400"],
//!     &[],
//!     &["peer0.org1", "peer0.org2"],
//! )?;
//! assert!(outcome.validation_code.is_valid());
//! # Ok(())
//! # }
//! ```
//!
//! ## Reproducing the paper
//!
//! * **Table I** — `cargo test -p fabric-pdc --test table1_rwset`
//! * **Table II** — `cargo run -p fabric-pdc --example attack_demo`
//!   ([`attacks::run_table2`]; cells asserted by `tests/attack_matrix.rs`)
//! * **Figs. 7–10** — `cargo run --release -p fabric-pdc --example
//!   corpus_scan -- --full` (asserted by `tests/corpus_study.rs`)
//! * **Fig. 11** — `cargo run --release -p fabric-pdc --example fig11`
//!   (its hashing counted by `tests/fig11_work.rs`)
//!
//! See `EXPERIMENTS.md` at the repository root for paper-vs-measured
//! results.

pub use fabric_analyzer as analyzer;
pub use fabric_attacks as attacks;
pub use fabric_chaincode as chaincode;
pub use fabric_client as client;
pub use fabric_crypto as crypto;
pub use fabric_gossip as gossip;
pub use fabric_ledger as ledger;
pub use fabric_lint as lint;
pub use fabric_monitor as monitor;
pub use fabric_network as network;
pub use fabric_orderer as orderer;
pub use fabric_peer as peer;
pub use fabric_policy as policy;
pub use fabric_raft as raft;
pub use fabric_telemetry as telemetry;
pub use fabric_types as types;
pub use fabric_wire as wire;

/// The types most programs start from.
pub mod prelude {
    pub use fabric_chaincode::samples::{
        Asset, AssetTransfer, Guard, GuardedPdc, PerfTest, SaccPrivate, SaccPrivateFixed, SbeDemo,
        SecuredTrade,
    };
    pub use fabric_chaincode::{Chaincode, ChaincodeDefinition, ChaincodeError, ChaincodeStub};
    pub use fabric_client::Client;
    pub use fabric_crypto::{sha256, Hash256, Keypair};
    pub use fabric_monitor::{AlertPhase, AlertTransition, Monitor, NetworkStatus, NodeSample};
    pub use fabric_network::{FabricNetwork, NetworkBuilder, NetworkError, SubmitOutcome};
    pub use fabric_peer::Peer;
    pub use fabric_policy::{Policy, SignaturePolicy};
    pub use fabric_telemetry::{render_chrome_trace, trace_id, AuditEvent, Telemetry, TxTimeline};
    pub use fabric_types::{
        ChaincodeId, ChannelId, CollectionConfig, CollectionName, DefenseConfig, Identity, OrgId,
        Proposal, Role, Transaction, TxId, TxKind, TxValidationCode,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_reexports() {
        let kp = Keypair::generate_from_seed(1);
        let id = Identity::new("Org1MSP", Role::Peer, kp.public_key());
        assert_eq!(id.org, OrgId::new("Org1MSP"));
        assert!(DefenseConfig::hardened().hashed_payload_commitment);
        assert_eq!(sha256(b"x").to_hex().len(), 64);
    }
}
