//! Chaincode events end to end: emitted during simulation, committed with
//! the transaction, delivered only for VALID transactions.

use fabric_pdc::prelude::*;
use std::sync::Arc;

fn network(seed: u64) -> FabricNetwork {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(seed)
        .build();
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    net
}

#[test]
fn valid_transactions_deliver_their_events() {
    let mut net = network(1000);
    let created = net
        .submit_transaction(
            "client0.org1",
            "assets",
            "CreateAsset",
            &["a1", "red", "alice", "10"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    let transferred = net
        .submit_transaction(
            "client0.org2",
            "assets",
            "TransferAsset",
            &["a1", "bob"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();

    let events = net.drain_events();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].0, created.tx_id);
    assert_eq!(events[0].1.name, "CreateAsset");
    assert_eq!(events[0].1.payload, b"a1");
    assert_eq!(events[1].0, transferred.tx_id);
    assert_eq!(events[1].1.name, "TransferAsset");
    assert_eq!(events[1].1.payload, b"a1:alice->bob");

    // Draining again yields nothing.
    assert!(net.drain_events().is_empty());
}

#[test]
fn invalid_transactions_emit_no_events() {
    let mut net = network(1001);
    net.submit_transaction(
        "client0.org1",
        "assets",
        "CreateAsset",
        &["a1", "red", "alice", "10"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();
    net.drain_events();

    // A create endorsed by one peer only: committed as invalid
    // (endorsement policy failure), so its event must not be delivered.
    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(1002),
        DefenseConfig::original(),
    );
    let proposal = client.create_proposal(
        net.channel().clone(),
        ChaincodeId::new("assets"),
        "CreateAsset",
        vec![
            b"a2".to_vec(),
            b"red".to_vec(),
            b"alice".to_vec(),
            b"1".to_vec(),
        ],
        Default::default(),
    );
    let r1 = net.endorse("peer0.org1", &proposal).unwrap();
    let (tx, _) = client.assemble_transaction(&proposal, &[r1]).unwrap();
    assert_eq!(
        net.commit(tx),
        Ok(TxValidationCode::EndorsementPolicyFailure)
    );
    assert!(net.drain_events().is_empty());
}

#[test]
fn events_are_committed_inside_the_transaction() {
    // The event is part of the signed payload: tampering with it breaks
    // the endorsement signatures.
    let mut net = network(1003);
    let outcome = net
        .submit_transaction(
            "client0.org1",
            "assets",
            "CreateAsset",
            &["a1", "red", "alice", "10"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    let store = net.peer("peer0.org3").block_store();
    let (tx, _) = store.transaction(&outcome.tx_id).unwrap();
    assert_eq!(tx.payload.event.as_ref().unwrap().name, "CreateAsset");
    let mut tampered = tx.clone();
    tampered.payload.event = None;
    assert!(!tampered.verify_endorsement_signatures());
}
