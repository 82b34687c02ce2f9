//! Late peer join: a new peer bootstraps by replaying the chain and
//! reconciling private data for its org's collections.

use fabric_pdc::prelude::*;
use std::sync::Arc;

fn seeded_network(seed: u64) -> FabricNetwork {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(seed)
        .build();
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    let def = ChaincodeDefinition::new("guarded").with_collection(
        CollectionConfig::membership_of("PDC1", &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
            .with_member_only_read(false),
    );
    net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained("PDC1")));
    for i in 0..3 {
        let key = format!("a{i}");
        net.submit_transaction(
            "client0.org1",
            "assets",
            "CreateAsset",
            &[&key, "red", "alice", "1"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    }
    net.submit_transaction(
        "client0.org1",
        "guarded",
        "write",
        &["secret", "42"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();
    net
}

#[test]
fn member_org_peer_joins_with_full_state() {
    let mut net = seeded_network(1100);
    let name = net.add_peer("Org2MSP");
    assert_eq!(name, "peer1.org2");

    let veteran = net.peer("peer0.org2");
    let rookie = net.peer("peer1.org2");
    // Identical chains.
    assert_eq!(
        rookie.block_store().height(),
        veteran.block_store().height()
    );
    assert_eq!(
        rookie.block_store().tip_hash(),
        veteran.block_store().tip_hash()
    );
    assert!(rookie.block_store().verify_chain());
    // Identical public state.
    assert_eq!(
        rookie.world_state().public_len(),
        veteran.world_state().public_len()
    );
    // The private data was reconciled (org2 is a member).
    assert_eq!(
        rookie
            .world_state()
            .get_private(
                &ChaincodeId::new("guarded"),
                &CollectionName::new("PDC1"),
                "secret"
            )
            .unwrap()
            .value,
        b"42"
    );
    // History replayed too.
    assert_eq!(
        rookie
            .history()
            .key_history(&ChaincodeId::new("assets"), "a0")
            .len(),
        1
    );
}

#[test]
fn non_member_org_peer_joins_with_hashes_only() {
    let mut net = seeded_network(1101);
    let name = net.add_peer("Org3MSP");
    let rookie = net.peer(&name);
    assert_eq!(
        rookie.block_store().tip_hash(),
        net.peer("peer0.org1").block_store().tip_hash()
    );
    let ns = ChaincodeId::new("guarded");
    let col = CollectionName::new("PDC1");
    assert!(rookie
        .world_state()
        .get_private(&ns, &col, "secret")
        .is_none());
    assert!(rookie
        .world_state()
        .get_private_hash(&ns, &col, "secret")
        .is_some());
}

#[test]
fn joined_peer_participates_in_new_transactions() {
    let mut net = seeded_network(1102);
    let name = net.add_peer("Org2MSP");
    // The new peer can endorse (MAJORITY: org1 + the new org2 peer covers
    // two orgs) and commits new blocks alongside everyone else.
    let outcome = net
        .submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &["post-join", "7"],
            &[],
            &["peer0.org1", &name],
        )
        .unwrap();
    assert!(outcome.validation_code.is_valid());
    for peer in ["peer0.org1", "peer0.org2", &name] {
        assert_eq!(
            net.peer(peer)
                .world_state()
                .get_private(
                    &ChaincodeId::new("guarded"),
                    &CollectionName::new("PDC1"),
                    "post-join"
                )
                .unwrap()
                .value,
            b"7",
            "{peer}"
        );
    }
}

#[test]
fn peer_joining_after_invalid_and_duplicate_transactions_matches_a_member() {
    let mut net = seeded_network(1104);
    let endorse = |net: &mut FabricNetwork, function: &str, args: &[&str]| -> Transaction {
        let args = args.iter().map(|a| a.as_bytes().to_vec()).collect();
        let proposal = net.client_mut("client0.org1").create_proposal(
            "ch1",
            "guarded",
            function,
            args,
            Default::default(),
        );
        let responses: Vec<_> = ["peer0.org1", "peer0.org2"]
            .iter()
            .map(|peer| net.endorse(peer, &proposal).unwrap())
            .collect();
        let client = net.client_mut("client0.org1");
        client
            .assemble_transaction(&proposal, &responses)
            .unwrap()
            .0
    };
    let commit = |net: &mut FabricNetwork, txs: &[Transaction]| {
        let height = net.peer("peer0.org2").block_store().height();
        for tx in txs {
            net.submit(tx.clone());
        }
        while net.peer("peer0.org2").block_store().height() == height {
            net.advance(1);
        }
        let store = net.peer("peer0.org2").block_store();
        store
            .block(height)
            .unwrap()
            .metadata
            .validation_codes
            .clone()
    };

    let write = endorse(&mut net, "write", &["w", "7"]);
    assert_eq!(
        commit(&mut net, std::slice::from_ref(&write)),
        [TxValidationCode::Valid]
    );
    // Both adds read `secret` at the same version; the write comes back.
    let block = [
        endorse(&mut net, "add", &["secret", "1"]),
        endorse(&mut net, "add", &["secret", "2"]),
        write,
    ];
    assert_eq!(
        commit(&mut net, &block),
        [
            TxValidationCode::Valid,
            TxValidationCode::MvccReadConflict,
            TxValidationCode::DuplicateTxId,
        ]
    );

    let name = net.add_peer("Org2MSP");
    let rookie = net.peer(&name).world_state();
    let private = |key| {
        let held = rookie.get_private(
            &ChaincodeId::new("guarded"),
            &CollectionName::new("PDC1"),
            key,
        );
        held.unwrap().value.clone()
    };
    assert_eq!(
        (private("w"), private("secret")),
        (b"7".to_vec(), b"43".to_vec())
    );
    assert_eq!(
        rookie.digest(),
        net.peer("peer0.org2").world_state().digest()
    );
}

#[test]
#[should_panic(expected = "not an organization")]
fn unknown_org_cannot_join() {
    let mut net = seeded_network(1103);
    let _ = net.add_peer("Org9MSP");
}
