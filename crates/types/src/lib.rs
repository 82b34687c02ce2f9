//! Core Hyperledger Fabric protocol data types for the PDC simulator.
//!
//! These mirror the message structures the paper reasons about (its Fig. 3):
//! proposals, proposal responses with the `payload`/`status`/`message`
//! response triple, read/write sets in both plaintext and hashed (PDC) form,
//! endorsements, transactions, blocks with per-transaction validity flags,
//! and collection configurations with the `EndorsementPolicy` knob that
//! drives the paper's Use Case 2.
//!
//! Everything implements [`fabric_wire::Encode`], so hashes and signatures
//! over these messages are canonical and stable.

#[macro_use]
mod wire_macros;

mod block;
mod collection;
mod defense;
mod identity;
mod ids;
mod json;
mod proposal;
mod rwset;
mod transaction;

pub use block::{Block, BlockHeader, BlockMetadata};
pub use collection::CollectionConfig;
pub use defense::DefenseConfig;
pub use identity::{Identity, Role};
pub use ids::{ChaincodeId, ChannelId, CollectionName, OrgId, TxId};
pub use json::json_str;
pub use proposal::{
    ChaincodeEvent, Endorsement, PayloadCommitment, Proposal, ProposalResponse,
    ProposalResponsePayload, Response, RESPONSE_ERROR, RESPONSE_OK,
};
pub use rwset::{
    CollectionHashedRwSet, CollectionPvtRwSet, HashedRead, HashedWrite, KvRead, KvRwSet, KvWrite,
    MetadataWrite, NsRwSet, PvtDataPackage, TxKind, TxRwSet, Version,
};
pub use transaction::{SignatureFailure, Transaction, TxMemo, TxValidationCode};
