//! Table I reproduction: read/write-set contents for the four transaction
//! types, produced by real chaincode execution against a peer snapshot
//! (not hand-built rwsets).

use fabric_pdc::prelude::*;
use fabric_pdc::types::Version;
use std::sync::Arc;

const COL: &str = "PDC1";

/// Builds a network whose PDC holds `k1 = 41`, written by the first
/// committed transaction, so at version `(0, 0)` (block 0, tx 0), and
/// returns it (the paper's Table I premise: key `k1` at some version).
fn seeded_network() -> FabricNetwork {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(500)
        .build();
    let def = ChaincodeDefinition::new("guarded").with_collection(
        CollectionConfig::membership_of(COL, &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
            .with_member_only_read(false),
    );
    net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained(COL)));
    let outcome = net
        .submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &["k1", "41"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    assert!(outcome.validation_code.is_valid());
    net
}

/// Endorses one proposal at a member peer and returns the collection's
/// hashed rwset from the proposal response.
fn rwset_of(
    net: &mut FabricNetwork,
    function: &str,
    args: &[&str],
) -> fabric_pdc::types::CollectionHashedRwSet {
    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(777),
        DefenseConfig::original(),
    );
    let proposal = client.create_proposal(
        net.channel().clone(),
        ChaincodeId::new("guarded"),
        function,
        args.iter().map(|a| a.as_bytes().to_vec()).collect(),
        Default::default(),
    );
    let response = net.endorse("peer0.org1", &proposal).unwrap();
    response.payload.results.ns_rwsets[0].collections[0].clone()
}

#[test]
fn read_only_row() {
    let mut net = seeded_network();
    let rwset = rwset_of(&mut net, "read", &["k1"]);
    assert_eq!(rwset.kind(), TxKind::ReadOnly);
    // Read set: (key, version); the version is the seeding commit's height.
    assert_eq!(rwset.reads.len(), 1);
    assert_eq!(rwset.reads[0].key_hash, sha256(b"k1"));
    assert_eq!(rwset.reads[0].version, Some(Version::new(0, 0)));
    // Write set: NULL.
    assert!(rwset.writes.is_empty());
}

#[test]
fn write_only_row() {
    let mut net = seeded_network();
    let rwset = rwset_of(&mut net, "write", &["k1", "41"]);
    assert_eq!(rwset.kind(), TxKind::WriteOnly);
    // Read set: NULL — this is what lets any peer endorse it.
    assert!(rwset.reads.is_empty());
    assert_eq!(rwset.writes.len(), 1);
    assert_eq!(rwset.writes[0].key_hash, sha256(b"k1"));
    assert_eq!(rwset.writes[0].value_hash, Some(sha256(b"41")));
    assert!(!rwset.writes[0].is_delete());
}

#[test]
fn read_write_row() {
    let mut net = seeded_network();
    let rwset = rwset_of(&mut net, "add", &["k1", "1"]);
    assert_eq!(rwset.kind(), TxKind::ReadWrite);
    assert_eq!(rwset.reads.len(), 1);
    assert_eq!(rwset.reads[0].version, Some(Version::new(0, 0)));
    assert_eq!(rwset.writes.len(), 1);
    assert_eq!(rwset.writes[0].value_hash, Some(sha256(b"42")));
    assert!(!rwset.writes[0].is_delete());
}

#[test]
fn delete_only_row() {
    let mut net = seeded_network();
    let rwset = rwset_of(&mut net, "delete", &["k1"]);
    assert_eq!(rwset.kind(), TxKind::DeleteOnly);
    // Read set: NULL; write set: (key, null, is_delete = true).
    assert!(rwset.reads.is_empty());
    assert_eq!(rwset.writes.len(), 1);
    assert_eq!(rwset.writes[0].value_hash, None);
    assert!(rwset.writes[0].is_delete());
}
