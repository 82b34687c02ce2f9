//! `BlockToLive` end to end: private data is purged from member stores
//! after the configured number of blocks, while the blockchain itself is
//! untouched (the paper's §III description of PDC lifecycle).

use fabric_pdc::prelude::*;
use std::sync::Arc;

#[test]
fn private_data_purges_after_btl_blocks() {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(995)
        .build();
    let def = ChaincodeDefinition::new("guarded").with_collection(
        CollectionConfig::membership_of("PDC1", &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
            .with_member_only_read(false)
            .with_block_to_live(2),
    );
    net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained("PDC1")));

    // Commit the secret at block 0.
    let outcome = net
        .submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &["ephemeral", "42"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    assert!(outcome.validation_code.is_valid());
    let ns = ChaincodeId::new("guarded");
    let col = CollectionName::new("PDC1");
    assert!(net
        .peer("peer0.org1")
        .world_state()
        .get_private(&ns, &col, "ephemeral")
        .is_some());

    // Advance the chain past the BTL window with unrelated writes.
    for i in 0..3 {
        let key = format!("filler{i}");
        net.submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &[&key, "1"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    }

    // The ephemeral value (and its hash) is gone at every peer...
    for peer in ["peer0.org1", "peer0.org2", "peer0.org3"] {
        assert!(
            net.peer(peer)
                .world_state()
                .get_private(&ns, &col, "ephemeral")
                .is_none(),
            "{peer} plaintext"
        );
        assert!(
            net.peer(peer)
                .world_state()
                .get_private_hash(&ns, &col, "ephemeral")
                .is_none(),
            "{peer} hash"
        );
    }
    // ...while fresher private data survives.
    assert!(net
        .peer("peer0.org1")
        .world_state()
        .get_private(&ns, &col, "filler2")
        .is_some());
    // The blockchain itself is immutable: the old transaction is still
    // there, hashes intact.
    let store = net.peer("peer0.org3").block_store();
    assert!(store.verify_chain());
    assert!(store.transaction(&outcome.tx_id).is_some());
}

#[test]
fn purged_plaintext_is_held_nowhere_and_late_joiners_match_the_members() {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(997)
        .build();
    let def = ChaincodeDefinition::new("guarded").with_collection(
        CollectionConfig::membership_of("PDC1", &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
            .with_block_to_live(2),
    );
    net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained("PDC1")));
    let writes: Vec<TxId> = (0..7)
        .map(|i| {
            let key = format!("k{i}");
            let outcome = net
                .submit_transaction(
                    "client0.org1",
                    "guarded",
                    "write",
                    &[&key, "42"],
                    &[],
                    &["peer0.org1", "peer0.org2"],
                )
                .unwrap();
            outcome.tx_id
        })
        .collect();

    let (ns, col) = (ChaincodeId::new("guarded"), CollectionName::new("PDC1"));
    for name in net.peer_names() {
        let peer = net.peer(&name);
        assert!(peer.world_state().get_private(&ns, &col, "k0").is_none());
        let id = peer.gossip_id().clone();
        assert!(net.gossip_mut().get(&id, &writes[0]).is_none(), "{name}");
    }
    let veteran = net.peer("peer0.org2").world_state();
    assert!(veteran.get_private(&ns, &col, "k6").is_some());
    let veteran = veteran.digest();

    let member = net.add_peer("Org2MSP");
    assert_eq!(net.peer(&member).world_state().digest(), veteran);
    let outsider = net.add_peer("Org3MSP");
    assert_eq!(net.peer(&outsider).world_state().private_len(), 0);
}

#[test]
fn btl_zero_keeps_data_forever() {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(996)
        .build();
    let def = ChaincodeDefinition::new("guarded").with_collection(
        CollectionConfig::membership_of("PDC1", &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
            .with_member_only_read(false),
    );
    net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained("PDC1")));
    net.submit_transaction(
        "client0.org1",
        "guarded",
        "write",
        &["durable", "42"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();
    for i in 0..5 {
        let key = format!("filler{i}");
        net.submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &[&key, "1"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    }
    assert!(net
        .peer("peer0.org1")
        .world_state()
        .get_private(
            &ChaincodeId::new("guarded"),
            &CollectionName::new("PDC1"),
            "durable"
        )
        .is_some());
}
