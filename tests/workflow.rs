//! Cross-crate invariants of the three-phase workflow: all peers converge
//! to identical chains and states, under load and under gossip faults.

use fabric_pdc::prelude::*;
use fabric_pdc::types::Version;
use std::sync::Arc;

fn pdc_network(seed: u64) -> FabricNetwork {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP", "Org4MSP"])
        .seed(seed)
        .build();
    let def = ChaincodeDefinition::new("guarded")
        // With 4 orgs, MAJORITY would need 3 endorsers; the PDC flows here
        // endorse at the two members, so use an explicit 2-of-4 policy.
        .with_endorsement_policy(
            "OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer','Org4MSP.peer')",
        )
        .with_collection(
            CollectionConfig::membership_of(
                "PDC1",
                &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
            )
            .with_member_only_read(false),
        );
    net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained("PDC1")));
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    net
}

#[test]
fn peers_converge_under_mixed_load() {
    let mut net = pdc_network(800);
    // A mix of public and private transactions.
    for i in 0..10 {
        let key = format!("asset{i}");
        net.submit_transaction(
            "client0.org1",
            "assets",
            "CreateAsset",
            &[&key, "red", "alice", "10"],
            &[],
            &["peer0.org1", "peer0.org2", "peer0.org3"],
        )
        .unwrap();
        let pkey = format!("p{i}");
        net.submit_transaction(
            "client0.org2",
            "guarded",
            "write",
            &[&pkey, &i.to_string()],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    }
    // Identical chains at every peer.
    let names = net.peer_names();
    let reference = net.peer(&names[0]).block_store();
    let ref_height = reference.height();
    let ref_tip = reference.tip_hash();
    assert!(ref_height > 0);
    for name in &names {
        let store = net.peer(name).block_store();
        assert!(store.verify_chain(), "{name}");
        assert_eq!(store.height(), ref_height, "{name}");
        assert_eq!(store.tip_hash(), ref_tip, "{name}");
    }
    // Identical public state; private state only at members.
    let ns = ChaincodeId::new("guarded");
    let col = CollectionName::new("PDC1");
    for i in 0..10 {
        let pkey = format!("p{i}");
        let v1 = net
            .peer("peer0.org1")
            .world_state()
            .get_private(&ns, &col, &pkey)
            .map(|v| v.value.clone());
        let v2 = net
            .peer("peer0.org2")
            .world_state()
            .get_private(&ns, &col, &pkey)
            .map(|v| v.value.clone());
        assert_eq!(v1, v2);
        assert!(v1.is_some());
        for nm in ["peer0.org3", "peer0.org4"] {
            assert!(net
                .peer(nm)
                .world_state()
                .get_private(&ns, &col, &pkey)
                .is_none());
            assert!(net
                .peer(nm)
                .world_state()
                .get_private_hash(&ns, &col, &pkey)
                .is_some());
        }
    }
}

#[test]
fn hashed_state_version_matches_plaintext_version() {
    let mut net = pdc_network(801);
    net.submit_transaction(
        "client0.org2",
        "guarded",
        "write",
        &["k", "9"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();
    let ns = ChaincodeId::new("guarded");
    let col = CollectionName::new("PDC1");
    let member_version = net
        .peer("peer0.org1")
        .world_state()
        .get_private(&ns, &col, "k")
        .unwrap()
        .version;
    let (_, non_member_version) = net
        .peer("peer0.org3")
        .world_state()
        .get_private_hash(&ns, &col, "k")
        .unwrap();
    assert_eq!(member_version, non_member_version);
}

#[test]
fn mvcc_rejects_stale_update_between_endorsement_and_commit() {
    let mut net = pdc_network(802);
    net.submit_transaction(
        "client0.org1",
        "guarded",
        "write",
        &["k", "1"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();

    // Endorse an "add" now (reads version of the current commit)...
    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(880),
        DefenseConfig::original(),
    );
    let proposal = client.create_proposal(
        net.channel().clone(),
        ChaincodeId::new("guarded"),
        "add",
        vec![b"k".to_vec(), b"1".to_vec()],
        Default::default(),
    );
    let r1 = net.endorse("peer0.org1", &proposal).unwrap();
    let r2 = net.endorse("peer0.org2", &proposal).unwrap();
    let (stale_tx, _) = client.assemble_transaction(&proposal, &[r1, r2]).unwrap();

    // ...then let a conflicting write commit first.
    net.submit_transaction(
        "client0.org2",
        "guarded",
        "write",
        &["k", "2"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();

    assert_eq!(net.commit(stale_tx), Ok(TxValidationCode::MvccReadConflict));
    // The conflicting value stands.
    assert_eq!(
        net.peer("peer0.org1")
            .world_state()
            .get_private(
                &ChaincodeId::new("guarded"),
                &CollectionName::new("PDC1"),
                "k"
            )
            .unwrap()
            .value,
        b"2"
    );
}

#[test]
fn versions_increase_monotonically() {
    let mut net = pdc_network(803);
    let mut last = Version::new(0, 0);
    for i in 1..=5 {
        net.submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &["k", &i.to_string()],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
        let v = net
            .peer("peer0.org1")
            .world_state()
            .get_private(
                &ChaincodeId::new("guarded"),
                &CollectionName::new("PDC1"),
                "k",
            )
            .unwrap()
            .version;
        assert!(
            v > last || (i == 1 && v >= last),
            "iteration {i}: {v} !> {last}"
        );
        last = v;
    }
}

#[test]
fn gossip_total_loss_still_converges_via_pull() {
    let mut net = pdc_network(804);
    net.gossip_mut().set_drop_rate(1.0);
    net.submit_transaction(
        "client0.org1",
        "guarded",
        "write",
        &["k", "5"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();
    for member in ["peer0.org1", "peer0.org2"] {
        assert_eq!(
            net.peer(member)
                .world_state()
                .get_private(
                    &ChaincodeId::new("guarded"),
                    &CollectionName::new("PDC1"),
                    "k"
                )
                .unwrap()
                .value,
            b"5",
            "{member}"
        );
    }
}
