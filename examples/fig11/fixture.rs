//! The Fig. 11 fixture: the measurement network, the three measured
//! operations, and the inputs of the two measured regions — a proposal
//! for one endorsement, a ready-to-validate block for one commit. The
//! `fig11` example times these; `tests/fig11_work.rs` counts the SHA-256
//! compressions they spend.

use fabric_pdc::prelude::*;
use fabric_pdc::types::{Block, PvtDataPackage};
use std::sync::Arc;

/// The chaincode namespace used by the fixtures.
const NS: &str = "guarded";
/// The private data collection used by the fixtures.
const COL: &str = "PDC1";

/// Builds the Fig. 11 measurement network: 3 orgs, PDC = {org1, org2},
/// unconstrained guarded chaincode, `k1 = 12` committed.
pub fn fixture_network(defense: DefenseConfig, seed: u64) -> FabricNetwork {
    let mut net = NetworkBuilder::new("mychannel")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(seed)
        .defense(defense)
        .build();
    let def = ChaincodeDefinition::new(NS)
        .with_endorsement_policy("MAJORITY Endorsement")
        .with_collection(
            CollectionConfig::membership_of(COL, &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
                .with_member_only_read(false)
                .with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer')"),
        );
    net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained(COL)));
    let outcome = net
        .submit_transaction(
            "client0.org1",
            NS,
            "write",
            &["k1", "12"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .expect("seed write");
    assert!(outcome.validation_code.is_valid());
    net
}

/// The validation columns' defended configuration: New Feature 1 plus the
/// non-member endorsement filter (the execution columns' is
/// [`DefenseConfig::feature2`]).
pub fn validation_defense() -> DefenseConfig {
    DefenseConfig {
        collection_policy_for_reads: true,
        filter_non_member_endorsers: true,
        ..DefenseConfig::original()
    }
}

/// The three per-transaction operations Fig. 11 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOp {
    /// PDC read (`read k1`).
    Read,
    /// PDC write (`write k1 12`).
    Write,
    /// PDC delete (`delete k1`).
    Delete,
}

impl TxOp {
    /// All measured operations.
    pub fn all() -> [TxOp; 3] {
        [TxOp::Read, TxOp::Write, TxOp::Delete]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            TxOp::Read => "read",
            TxOp::Write => "write",
            TxOp::Delete => "delete",
        }
    }

    /// The chaincode invocation for this operation.
    fn invocation(&self) -> (&'static str, Vec<Vec<u8>>) {
        match self {
            TxOp::Read => ("read", vec![b"k1".to_vec()]),
            TxOp::Write => ("write", vec![b"k1".to_vec(), b"12".to_vec()]),
            TxOp::Delete => ("delete", vec![b"k1".to_vec()]),
        }
    }
}

/// A prepared proposal for execution-latency measurement (the endorse call
/// is the measured region).
pub fn make_proposal(net: &FabricNetwork, op: TxOp, nonce: u64) -> Proposal {
    let (function, args) = op.invocation();
    let kp = Keypair::generate_from_seed(9_000_000 + nonce);
    let creator = Identity::new("Org1MSP", Role::Client, kp.public_key());
    Proposal::new(
        net.channel().clone(),
        ChaincodeId::new(NS),
        function,
        args,
        Default::default(),
        creator,
        nonce,
    )
}

/// A ready-to-validate block plus its private data, for validation-latency
/// measurement: clone the returned peer and block, then
/// [`process_prepared`].
pub fn prepared_block(
    net: &mut FabricNetwork,
    op: TxOp,
    defense: DefenseConfig,
    nonce: u64,
) -> (Peer, Block, Option<PvtDataPackage>) {
    let (function, args) = op.invocation();
    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(9_100_000 + nonce),
        defense,
    );
    let proposal = client.create_proposal(
        net.channel().clone(),
        ChaincodeId::new(NS),
        function,
        args,
        Default::default(),
    );
    let (r1, pvt) = net
        .peer("peer0.org1")
        .endorse(&proposal)
        .expect("endorse org1");
    let (r2, _) = net
        .peer("peer0.org2")
        .endorse(&proposal)
        .expect("endorse org2");
    let (tx, _) = client
        .assemble_transaction(&proposal, &[r1, r2])
        .expect("assemble");
    let peer = net.peer("peer0.org2").clone();
    let block = Block::new(
        peer.block_store().height(),
        peer.block_store().tip_hash(),
        vec![tx],
    );
    (peer, block, pvt)
}

/// Validates + commits one prepared block on `peer`; the measured region
/// of the validation-latency measurement (the caller clones the peer and
/// block outside it).
pub fn process_prepared(mut peer: Peer, block: Block, pvt: &Option<PvtDataPackage>) -> bool {
    let mut provider = |_: &TxId| pvt.clone().map(Arc::new);
    let outcome = peer
        .process_block(block, &mut provider)
        .expect("block chains");
    outcome.validation_codes[0].is_valid()
}
