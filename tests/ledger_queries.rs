//! Range queries and the history index end to end, including the MVCC
//! behaviour of range reads.

use fabric_pdc::prelude::*;
use fabric_pdc::wire::Decode;
use std::sync::Arc;

fn network(seed: u64) -> FabricNetwork {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(seed)
        .build();
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    net
}

fn create(net: &mut FabricNetwork, id: &str, value: &str) {
    let outcome = net
        .submit_transaction(
            "client0.org1",
            "assets",
            "CreateAsset",
            &[id, "red", "alice", value],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    assert!(outcome.validation_code.is_valid());
}

#[test]
fn range_query_returns_all_assets_in_order() {
    let mut net = network(920);
    for (i, id) in ["a1", "a3", "a2"].iter().enumerate() {
        create(&mut net, id, &format!("{}", 100 + i));
    }
    let payload = net
        .evaluate_transaction("client0.org1", "peer0.org3", "assets", "GetAllAssets", &[])
        .unwrap();
    let assets_bytes = Vec::<Vec<u8>>::from_wire(&payload).unwrap();
    let ids: Vec<String> = assets_bytes
        .iter()
        .map(|b| Asset::from_bytes(b).unwrap().id)
        .collect();
    assert_eq!(ids, vec!["a1", "a2", "a3"]);
}

#[test]
fn range_read_is_mvcc_protected_on_returned_keys() {
    let mut net = network(921);
    create(&mut net, "a1", "100");

    // Endorse a range query now (records a1 at its current version)...
    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(930),
        DefenseConfig::original(),
    );
    let proposal = client.create_proposal(
        net.channel().clone(),
        ChaincodeId::new("assets"),
        "GetAllAssets",
        vec![],
        Default::default(),
    );
    let r1 = net.endorse("peer0.org1", &proposal).unwrap();
    let r2 = net.endorse("peer0.org2", &proposal).unwrap();
    let (stale_tx, _) = client.assemble_transaction(&proposal, &[r1, r2]).unwrap();

    // ...then update a1 so the recorded version goes stale.
    let outcome = net
        .submit_transaction(
            "client0.org1",
            "assets",
            "UpdateAsset",
            &["a1", "blue", "alice", "150"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    assert!(outcome.validation_code.is_valid());

    assert_eq!(net.commit(stale_tx), Ok(TxValidationCode::MvccReadConflict));
}

#[test]
fn history_tracks_updates_and_deletes() {
    let mut net = network(922);
    create(&mut net, "a1", "100");
    net.submit_transaction(
        "client0.org1",
        "assets",
        "TransferAsset",
        &["a1", "bob"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();
    net.submit_transaction(
        "client0.org1",
        "assets",
        "DeleteAsset",
        &["a1"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();

    // Every peer's history index agrees: create, transfer, delete.
    for peer in ["peer0.org1", "peer0.org2", "peer0.org3"] {
        let h = net
            .peer(peer)
            .history()
            .key_history(&ChaincodeId::new("assets"), "a1");
        assert_eq!(h.len(), 3, "{peer}");
        assert!(!h[0].is_delete());
        assert!(!h[1].is_delete());
        assert!(h[2].is_delete());
        assert_eq!(
            Asset::from_bytes(h[1].value.as_ref().unwrap())
                .unwrap()
                .owner,
            "bob"
        );
        // Versions strictly increase.
        assert!(h[0].version < h[1].version && h[1].version < h[2].version);
    }

    // The chaincode-level history query sees the same record.
    let payload = net
        .evaluate_transaction(
            "client0.org1",
            "peer0.org3",
            "assets",
            "GetAssetHistory",
            &["a1"],
        )
        .unwrap();
    let text = String::from_utf8(payload).unwrap();
    assert_eq!(text.lines().count(), 3);
    assert!(text.lines().last().unwrap().ends_with("deleted"));
}

#[test]
fn invalid_transactions_leave_no_history() {
    let mut net = network(923);
    create(&mut net, "a1", "100");
    // A duplicate create fails at endorsement; nothing recorded.
    let err = net.submit_transaction(
        "client0.org1",
        "assets",
        "CreateAsset",
        &["a1", "red", "alice", "100"],
        &[],
        &["peer0.org1", "peer0.org2"],
    );
    assert!(err.is_err());
    let h = net
        .peer("peer0.org1")
        .history()
        .key_history(&ChaincodeId::new("assets"), "a1");
    assert_eq!(h.len(), 1);
}
