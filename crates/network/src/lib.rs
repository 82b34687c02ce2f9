//! In-process Fabric network composition: peers, clients, the Raft-backed
//! ordering service and the gossip layer, wired into the full three-phase
//! execute–order–validate workflow of the paper's Fig. 2.
//!
//! The prototype systems of the paper's evaluation (§V) are instances of
//! [`FabricNetwork`] built with [`NetworkBuilder`]: one peer and one client
//! per organization, a channel, a chaincode with a private data collection,
//! and a configurable [`DefenseConfig`](fabric_types::DefenseConfig).
//!
//! # Examples
//!
//! ```
//! use fabric_network::NetworkBuilder;
//! use fabric_chaincode::{samples::AssetTransfer, ChaincodeDefinition};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = NetworkBuilder::new("mychannel")
//!     .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
//!     .seed(7)
//!     .build();
//! net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
//!
//! let outcome = net.submit_transaction(
//!     "client0.org1",
//!     "assets",
//!     "CreateAsset",
//!     &["a1", "red", "alice", "100"],
//!     &[],
//!     &["peer0.org1", "peer0.org2"],
//! )?;
//! assert!(outcome.validation_code.is_valid());
//! # Ok(())
//! # }
//! ```

mod builder;
mod consortium;
mod error;
mod net;

pub use builder::NetworkBuilder;
pub use consortium::Consortium;
pub use error::NetworkError;
pub use net::{host_cores, FabricNetwork, PeerCommitErrors, SubmitOutcome};
